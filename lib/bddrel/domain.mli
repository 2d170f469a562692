(** Logical attribute domains (the paper's [V], [H], [F], [T], [I], [N],
    [M], [Z], [C] in Algorithm 1-5's DOMAINS sections).

    A domain is a named, sized set whose elements are ordinals
    [0 .. size-1], optionally with a per-element name map (the paper's
    ["variable.map"] files). *)

type t

val make : ?element_names:string array -> name:string -> size:int -> unit -> t
(** [make ~name ~size ()] builds a domain.  Raises [Invalid_argument] when
    [size < 1] or when [element_names] is shorter than [size]. *)

val name : t -> string
val size : t -> int

val bits : t -> int
(** Number of BDD variables needed: [ceil (log2 size)], at least 1. *)

val element_name : t -> int -> string
(** Name of element [i], falling back to the ordinal in decimal. *)

val element_names : t -> string array option
(** The name table passed to {!make}, if any — what a persisted store
    writes out as the domain's [.map] file. *)

val element_index : t -> string -> int option
(** Reverse of {!element_name}; also accepts a decimal ordinal. *)

val equal : t -> t -> bool
(** Identity: two domains are the same only if created by the same
    {!make} call. *)
