(** Paged backing store for the BDD node table.

    The manager's packed stride-4 node records live in fixed-size
    pages ([1 lsl page_bits] slots each) behind a pinning buffer pool:
    slot [n] is on page [n lsr page_bits] at record
    [(n land page_mask) * 4].  Without a byte cap every page is
    permanently resident and the arena is just a two-level array; with
    [max_bytes] set, cold pages spill to a CRC-32-checked scratch file
    and fault back in through clock/second-chance replacement.

    The record is transparent so the manager's hot path can inline the
    page lookup and test residency with a physical equality against
    {!empty_page}; everything that can fault or do IO goes through the
    functions below.  All file-system transitions run {!Faults.fs_op}
    hooks first and mutate the pool only after the IO succeeded, so an
    injected crash or real IO error surfaces as
    [Solver_error.Error (Internal _)] with the arena left consistent.
    Uncapped arenas never touch the file system and emit no hooks. *)

type t = {
  page_bits : int;
  page_mask : int;
  slots_per_page : int;
  ints_per_page : int;  (** [slots_per_page * 4] *)
  capped : bool;  (** false = all pages resident forever, no IO ever *)
  max_resident : int;
  mutable pages : int array array;
      (** the spine; entry [== empty_page] means the page is spilled *)
  mutable num_pages : int;
  mutable resident : int;
  mutable pins : int array;
  mutable refbit : Bytes.t;
  mutable dirty : Bytes.t;
  mutable on_disk : Bytes.t;
  mutable hand : int;
  spill_path : string option;
  mutable spill_real_path : string option;
  mutable spill_fd : Unix.file_descr option;
  spill_buf : Bytes.t;
  slot_bytes : int;
  mutable tail : int;
  mutable evictions : int;
  mutable fault_ins : int;
  mutable spill_writes : int;
  mutable spill_reads : int;
  mutable peak_resident : int;
}

val empty_page : int array
(** The shared zero-length sentinel marking a spilled page.  All
    zero-length [int array]s are one runtime atom, so
    [a.pages.(p) != empty_page] is a correct one-instruction residency
    test. *)

val create : ?page_bits:int -> ?max_bytes:int -> ?spill_path:string -> unit -> t
(** Empty arena (no pages).  [page_bits] must be in [\[4, 22\]]
    (default 12: 4096 slots, 128 KiB of packed records per page).
    [max_bytes] caps resident page bytes (clamped to at least three
    pages: the pinned terminal page, the allocation tail and one
    victim).  [spill_path] names the scratch file; default is a fresh
    temp file, created lazily on first spill. *)

val capacity : t -> int
(** Total slots across all pages, resident or spilled. *)

val total_bytes : t -> int
(** Bytes of node records across all pages — the budget dimension. *)

val resident_bytes : t -> int
val pinned_pages : t -> int

val add_page : t -> int
(** Append a fresh resident page of [-1]s and return its index,
    evicting under the cap first. *)

val fault_in : t -> int -> int array
(** Return page [p]'s array, reading it back from the spill file (and
    evicting to make room) if it is not resident.  A CRC mismatch or
    IO failure raises with the page still spilled. *)

val pin : t -> int -> unit
(** Fault the page in if needed and make it ineligible for eviction
    until the matching unpin.  Pins nest. *)

val set_tail : t -> int -> unit
(** Move the allocation-tail pin from the previous tail page to [p]:
    the page [mk] bump-allocates into is never evicted under it. *)

val swap : t -> int array array -> int -> unit
(** [swap a fresh n] replaces the entire page set with the first [n]
    pages of [fresh] (all taken as resident and dirty), invalidates
    every old spill slot, re-pins the terminal page and then evicts
    back under the cap.  Used by compacting GC to install the
    level-clustered copy. *)

val adopt : t -> int array array -> unit
(** [adopt a pages] installs [pages] as the first pages of the empty,
    uncapped arena [a].  They stay shared with their owner: the caller
    must never write them.  Used to build a [Bdd.overlay]. *)

val dispose : t -> unit
(** Close and delete the spill file, if one was created.  The arena's
    resident pages remain readable. *)

val sweep_stale_spills : ?max_age_s:float -> dir:string -> unit -> int
(** Remove orphaned spill scratch files under [dir]: pid-named debris
    ([arena.<pid>.spill], [whalelam-arena.<pid>.<rand>.spill]) whose
    creator is dead and whose mtime is at least [max_age_s] seconds
    old (default 60).  Returns the number of files removed.  See
    {!Bdd.sweep_stale_spills}. *)
