(** BDD-backed finite relations.

    A relation is a named tuple set over attributes, each stored in a
    {!Space.block}.  The BDD root is registered with the manager so the
    contents survive {!Bdd.gc}; call {!dispose} when a relation is no
    longer needed.

    Algebraic operations follow §2.4.1 of the paper: [join]
    (natural join), [project] (existential quantification), [rename]
    (block change via [Bdd.replace]), with [compose] fusing join and
    project through [Bdd.relprod]. *)

type t

type attr = { attr_name : string; block : Space.block }

val make : Space.t -> name:string -> attr list -> t
(** An empty relation.  Attribute names must be distinct; two
    attributes may not share a block. *)

val name : t -> string
val space : t -> Space.t
val attrs : t -> attr list
val arity : t -> int

val find_attr : t -> string -> attr
(** Raises [Not_found]. *)

val bdd : t -> Bdd.t
val set_bdd : t -> Bdd.t -> unit
val version : t -> int
(** Incremented every time the contents change; used for
    loop-invariant caching in the engine. *)

val dispose : t -> unit

(** {2 Tuples} *)

val add_tuple : t -> int array -> unit
(** Values in attribute order.  Raises [Invalid_argument] on arity or
    range errors. *)

val set_tuples : t -> int array list -> unit
(** Union a whole tuple list into the relation at once: tuples are
    written as bit rows in global variable order and the BDD is built
    bottom-up as a trie aligned with that order — much faster than
    repeated {!add_tuple} on large inputs. *)

val of_tuples : Space.t -> name:string -> attr list -> int array list -> t
val mem_tuple : t -> int array -> bool
val iter_tuples : t -> (int array -> unit) -> unit
(** The callback array is fresh for each tuple, in attribute order. *)

val fold_tuples : t -> init:'a -> f:('a -> int array -> 'a) -> 'a
val tuples : t -> int array list
val count : t -> float
val count_big : t -> Bignat.t
val is_empty : t -> bool

(** {2 Algebra}

    All results are freshly allocated relations; inputs are unchanged
    unless the operation says "in place". *)

val copy : ?name:string -> t -> t
val union : t -> t -> t
val union_in_place : t -> t -> unit
(** [union_in_place dst src]: requires identical attribute lists. *)

val diff : t -> t -> t
val inter : t -> t -> t
val equal : t -> t -> bool
val select : t -> string -> int -> t
(** [select r a v] keeps tuples whose attribute [a] equals [v]. *)

val project : t -> string list -> t
(** Keep exactly the named attributes (existentially quantifying the
    rest), in the order given. *)

val project_away : t -> string list -> t

val rename : ?name:string -> t -> (string * string * Space.block) list -> t
(** [rename r moves] simultaneously renames/moves attributes:
    [(old_name, new_name, new_block)].  Unlisted attributes are kept.
    All target blocks must be distinct from each other and from the
    kept attributes' blocks. *)

val join : t -> t -> t
(** Natural join on equal attribute names.  Shared attributes must
    live in the same block in both relations (the engine arranges
    this); attributes exclusive to either side must not collide. *)

val compose : t -> t -> string list -> t
(** [compose r1 r2 away] = [project_away (join r1 r2) away], fused via
    [Bdd.relprod]. *)

(** {2 Frozen relation values}

    A relation's contents captured as an immutable value, shareable
    across domains.  The operations below evaluate it on any manager
    that holds its handles — the relation's own, or a per-domain
    {!Bdd.overlay} of a snapshot of it — and allocate only there: no
    roots, no disposal ({!Bdd.reset} reclaims an overlay's
    intermediates at once).  The live {!select}, {!project}, {!inter},
    {!tuples} and {!count} run through them. *)

type frozen

val freeze : t -> frozen
(** Capture the relation's current contents.  To serve from a
    {!Bdd.freeze} snapshot, capture {e after} the snapshot: the
    freeze-time collection renumbers handles and rewrites the
    relation's registered root in place, so only a capture taken
    afterwards reads the snapshot's handle. *)

val frozen_attrs : frozen -> attr list
val frozen_arity : frozen -> int

val frozen_find_attr : frozen -> string -> attr
(** Raises [Not_found], like {!find_attr}. *)

val frozen_select : Bdd.man -> frozen -> string -> int -> frozen
val frozen_project : Bdd.man -> frozen -> string list -> frozen
val frozen_inter : Bdd.man -> frozen -> frozen -> frozen
val frozen_tuples : Bdd.man -> frozen -> int array list
val frozen_count : Bdd.man -> frozen -> float
