(** Persistent, content-addressed BDD relation store.

    A store is an on-disk results database for one solved analysis:
    the logical domains (with their element-name maps), the physical
    variable layout ({!Space.block}s), and a set of named relations —
    all relation BDDs saved as {e one} shared DAG ({!Bdd.serialize}),
    so structure repeated across relations is written once.

    Layout under the store root [dir]:

    {v
    dir/store/manifest        versioned text manifest (written last)
    dir/store/relations.bdd   shared-DAG dump, one root per relation
    dir/store/<dom>.map       element names, one per line (optional)
    dir/store/serial          the directory's snapshot counter
    dir/store/certified       certification mark (optional, see below)
    v}

    The manifest carries a [key]: a content hash of the analysis
    inputs (program bytes + configuration), computed by the caller.  A
    re-run whose key matches can skip solving entirely and answer from
    the store.

    {b Crash safety (write barriers).}  Every file is written through
    temp + [fsync] + rename + directory [fsync], so a visible rename
    implies durable content; the manifest is written {e last} and
    removed {e first} (removal fsynced) when overwriting, so an
    interrupted or killed save can never leave a manifest describing
    missing or mismatched data: the store is either complete or
    treated as absent/invalid.  Every mutation is announced through
    {!Faults.fs_op} just before it happens, so the robustness suite
    can enumerate the crash points and simulate a kill at each one.

    {b Integrity (checksums).}  The manifest records a CRC-32 and byte
    size for each data file — verified on {!load} before a byte is
    interpreted — plus a [selfsum] CRC-32 of the manifest itself.  Any
    corruption is a structured checksum error naming the file and the
    expected/actual CRC, never a crash deep in [Bdd.deserialize].

    Load errors are reported as [Solver_error.Error (Bad_input _)]
    with the offending file and line (or byte offset for the BDD
    dump). *)

type t

val format_version : int

val save :
  dir:string ->
  key:string ->
  config:(string * string) list ->
  space:Space.t ->
  relations:Relation.t list ->
  unit
(** Persist [relations] (all owned by [space]) under [dir].  [config]
    is an informational key/value list recorded in the manifest
    (algorithm, query suffixes, scale, ...); keys must be
    space/newline-free, values newline-free.  Relation and domain
    names must be unique.  Overwrites any previous store at [dir]. *)

val save_delta :
  dir:string ->
  key:string ->
  config:(string * string) list ->
  space:Space.t ->
  deltas:(string * Bdd.t * Bdd.t) list ->
  int
(** Append one delta layer to the chain at [dir] and return its index
    (1 for the first layer over a fresh base).  Each [(name, added,
    removed)] entry describes one relation's change against the
    current chain tip: on {!load} the fold is
    [rel := (rel \ removed) ∪ added], applied base-upward.  [key] and
    [config] describe the {e new} tip (a subsequent {!read_tip}
    reports them); [space] must carry the exact variable layout of the
    base store — the BDDs are meaningless under any other layout, and
    a layout change must go through a full {!save}.  Domains may have
    {e grown} within their bit widths (appended program entities): the
    layer records the final sizes and a full replacement element-name
    map for any mapped domain whose names changed.  The same write
    barriers as {!save} apply — serial first, data files next, the
    layer manifest last as the commit point — so a torn append leaves
    the previous tip serving unchanged.  An empty [deltas] list is
    legal and re-keys the tip (a byte-level program change with no
    semantic diff). *)

val compact : dir:string -> int
(** Squash the delta chain back to a single base: load the folded
    state, full-save it under the tip's key and config, and remove the
    (now orphaned) layer files.  Returns the number of layers
    squashed (0 = nothing to do).  Crash-safe: interrupted, the
    directory reads as either the old chain or the new base plus
    orphaned layers that {!load} ignores. *)

(** {!save}, {!save_delta} and {!compact}, also returning the snapshot
    each committed (for [compact], of the tip it leaves): what a writer
    that certifies its own commit hands to {!mark_certified_ident}.
    Reading the tip back instead could name another writer's save. *)

val save_snapshot :
  dir:string -> key:string -> config:(string * string) list -> space:Space.t -> relations:Relation.t list -> int

val save_delta_snapshot :
  dir:string ->
  key:string ->
  config:(string * string) list ->
  space:Space.t ->
  deltas:(string * Bdd.t * Bdd.t) list ->
  int * int
(** (layer index, snapshot) *)

val compact_snapshot : dir:string -> int * int
(** (layers squashed, snapshot) *)

val exists : dir:string -> bool
(** A complete store (manifest present) exists at [dir]. *)

val manifest_path : string -> string
(** [manifest_path dir] is the manifest file's path under the store
    root [dir] — the single commit point of a save.  Followers [stat]
    it as a cheap has-anything-changed probe before reading. *)

type tip = { key : string; snapshot : int; layers : int; certified : bool }
(** The committed {e chain tip}: the topmost delta layer's key and
    snapshot (the base's when there are no layers), the number of
    layers above the base, and whether the certification mark names
    this tip (what {!certified} would say of its load).  Two
    equal [(key, snapshot)] pairs describe the same state, so a stale
    base can never masquerade as the current save. *)

val read_tip : dir:string -> tip option
(** The store's one identity reader: parses the base manifest and
    walks the layer chain once, without reading data files or building
    BDDs.  [None] when there is no complete, well-formed store at
    [dir], or when a committed layer is corrupt (not merely torn).
    This is what [query --store] compares its key against and what a
    follower polls to decide whether to load. *)

val read_layers : dir:string -> int option
(** [read_tip]'s layer count. *)

val tip_stat : dir:string -> (int * float * int) list
(** [stat] triples (inode, mtime, size) of the base manifest, the
    certification mark file (zeros when there is none) and every
    consecutive layer manifest — the cheap has-anything-changed probe
    a follower compares between polls before paying for {!read_tip}.
    Every save, layer and mark changes it.  Empty when there is no
    base manifest. *)

val load : dir:string -> t
(** Rebuild the chain tip into a fresh {!Space}: domains (with element
    names), blocks at their saved variable ids, and every relation
    BDD-exact.  The chain is read once: every file that any of its
    manifests checksums — maps a later layer superseded included — is
    read once and its size and CRC-32 verified before any file is
    parsed, so a load that returns has checked the same bytes as
    {!verify}.  Raises [Solver_error.Error (Bad_input _)] on a missing,
    malformed or corrupt store. *)

val load_with : ?mem_cap_bytes:int -> dir:string -> unit -> t
(** {!load} with a node-arena cap: [mem_cap_bytes] caps the rebuilt
    space's resident pages (see {!Space.create}); a capped load spills
    cold pages to a pid-named scratch file under [dir]'s store
    directory (not manifested — invisible to {!verify}, debris at
    worst).  Every load first sweeps scratch files abandoned by dead
    processes ({!Bdd.sweep_stale_spills}), so a SIGKILLed capped load
    cannot leak disk space forever. *)

(** {2 Semantic certification marks}

    Byte-level integrity (checksums, write barriers) cannot tell a
    well-formed store holding a wrong answer from a right one.  An
    independent fixpoint check ([Pta.Certify]) can; these record its
    verdict so followers can {e demand} certified snapshots.

    A mark is its own one-line file, [store/certified]: the checked
    chain-tip [(key, snapshot)] and a CRC-32 of it, written through the
    atomic write barrier, so recording one never rewrites a manifest.
    Reading it apart from the chain is sound because it names an
    identity: snapshots only grow within a directory (the serial file),
    so no later save carries the identity a stale mark names, and
    {!save} and {!compact} leave the file alone.  A torn or corrupt
    mark reads as none, as does a [certified] line in a base manifest
    written before marks had their own file (re-run [ptacli certify]). *)

val mark_certified : dir:string -> string * int
(** Mark the current chain tip and return its identity.  Raises
    [Solver_error.Error (Bad_input _)] when there is no store or the
    chain is broken. *)

val mark_certified_ident : dir:string -> key:string -> snapshot:int -> unit
(** {!mark_certified} for the state a certification actually checked:
    raises [Solver_error.Error (Bad_input _)] without writing when
    [(key, snapshot)] is not the chain tip (decided in the same chain
    parse as the write), and also when a save commits while the mark
    is written — the mark then names a superseded identity and the new
    tip stays unmarked.  A return means the mark named the tip when it
    committed. *)

val certified : t -> bool
(** The mark file, read during the load, names the loaded tip's own
    [(key, snapshot)] — so a gate on it vouches for exactly the state
    it serves, whatever has been saved since. *)

val corrupt_tuple_for_tests : dir:string -> relation:string -> unit
(** {b Test only.}  Inject semantic corruption that byte-level
    {!verify} cannot see: delete the first tuple of [relation] (or
    insert an all-zeros tuple when it is empty) and re-save the folded
    state under the same key and config.  The re-save runs the
    ordinary write barrier, so every CRC and selfsum is freshly
    consistent; the snapshot bumps (followers see a new candidate), so
    a mark written before no longer names the tip.  Raises
    [Invalid_argument] for an unknown relation. *)

(** {2 Verification and repair} *)

type check = {
  chk_name : string;  (** ["manifest"], a data file name, or ["structural load"] *)
  chk_ok : bool;
  chk_detail : string;  (** human-readable outcome (sizes, CRCs, or the error) *)
}

val verify : dir:string -> check list
(** Full health check, cheapest first: manifest parse (including its
    selfsum), per-file size + CRC-32, and — only when those pass — a
    complete structural load.  Never raises; a store is healthy iff
    every {!check} has [chk_ok = true].  Unlike {!load}, it reports
    every failing file rather than the first.  The [ptacli store
    verify] subcommand prints this list. *)

val quarantine : dir:string -> string option
(** Move a (presumably broken) store directory aside to
    [<dir>/store.broken.<n>] so the next save starts clean, returning
    the quarantine path, or [None] when there is nothing at [dir].
    The [ptacli store repair] subcommand drives this. *)

val quarantine_layers : dir:string -> from_layer:int -> string option
(** Cut a broken tail off the delta chain: move every layer file with
    index >= [from_layer] into a fresh [store/layers.broken.<k>/]
    directory, returning its path ([None] when there was nothing to
    move).  The base and the layers below the cut keep serving — the
    surgical repair when {!verify} blames a layer but the base is
    healthy. *)

val first_broken_layer : check list -> int option
(** The smallest layer index named by a failing check, provided the
    base checks themselves all pass — i.e. the [from_layer] to hand
    {!quarantine_layers}.  [None] when the store is healthy or the
    base itself is broken (full {!quarantine} territory). *)

val key : t -> string

val snapshot : t -> int
(** Monotonic per-directory save counter, written as the manifest's
    [snapshot] line: each {!save} over the same directory records the
    previous counter plus one (1 for a fresh directory).  Unlike
    {!key} — a content hash of the analysis inputs — the snapshot
    distinguishes two saves of identical content, so followers and
    routers can assert exactly which save answered a query.  The
    counter lives in a dedicated [serial] file committed before the
    old manifest is invalidated, so it survives saves torn by a crash
    and never goes backwards over a directory's lifetime. *)

val layers : t -> int
(** Delta layers folded into this load (0 for a plain base). *)

val config : t -> (string * string) list
val config_value : t -> string -> string option
val space : t -> Space.t
val domain : t -> string -> Domain.t option
val relations : t -> Relation.t list
(** In manifest (= save) order. *)

val find : t -> string -> Relation.t option
