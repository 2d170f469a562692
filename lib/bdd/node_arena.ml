(* Paged backing store for the BDD node table.

   Nodes stay packed stride-4 [var; low; high; next], but the single
   flat array becomes a spine of fixed-size pages: slot [n] lives on
   page [n lsr page_bits] at record [n land page_mask].  An uncapped
   arena is just that two-level lookup — every page is resident
   forever, and the only cost over the old flat array is one extra
   indirection that the level-clustered compacting GC pays back in
   locality.

   With a byte cap ([max_bytes]) the spine doubles as a buffer pool:
   at most [max_resident] pages are in memory, the rest live in a
   spill file (one fixed slot per page, CRC-32 trailer), and a
   non-resident page's spine entry is the shared [empty_page] sentinel
   (the zero-length array atom, so the fast-path test is one physical
   equality).  Replacement is clock/second-chance over reference bits
   the manager sets on access; pinned pages (terminal page, allocation
   tail, explicit pin scopes) are never victims.  Pages are spilled
   through a write barrier: a page with a valid, clean disk copy is
   dropped without IO.

   Failure discipline: every file-system transition runs a
   [Faults.fs_op] hook first and mutates the pool only after the IO
   succeeded, so an injected crash or a real [Unix_error] leaves the
   arena exactly as it was — the failure surfaces as a structured
   [Solver_error.Error (Internal _)] (or the injector's own exception)
   and the arena remains fully usable.  A CRC mismatch on fault-in is
   reported the same way, before a single corrupt word is installed.
   Uncapped arenas never touch the file system and run zero hooks. *)

type t = {
  page_bits : int;
  page_mask : int;
  slots_per_page : int;
  ints_per_page : int;
  capped : bool;
  max_resident : int;
  mutable pages : int array array; (* spine; [empty_page] = spilled *)
  mutable num_pages : int;
  mutable resident : int;
  mutable pins : int array; (* pin counts per page; > 0 = not evictable *)
  mutable refbit : Bytes.t; (* clock second-chance bits *)
  mutable dirty : Bytes.t; (* page differs from its disk copy *)
  mutable on_disk : Bytes.t; (* spill slot holds a valid copy *)
  mutable hand : int; (* clock position *)
  spill_path : string option;
  mutable spill_real_path : string option; (* resolved at first spill *)
  mutable spill_fd : Unix.file_descr option;
  spill_buf : Bytes.t; (* one-slot IO scratch, [slot_bytes] long *)
  slot_bytes : int; (* on-disk bytes per page incl. CRC trailer *)
  mutable tail : int; (* tail-pinned page (bump-allocation target), -1 = none *)
  mutable evictions : int;
  mutable fault_ins : int;
  mutable spill_writes : int;
  mutable spill_reads : int;
  mutable peak_resident : int;
}

(* All zero-length arrays are one runtime atom, so a real (non-empty)
   page can never be physically equal to this sentinel. *)
let empty_page : int array = [||]

let default_page_bits = 12

let internal fmt = Printf.ksprintf (fun msg -> raise (Solver_error.Error (Solver_error.Internal msg))) fmt

let create ?(page_bits = default_page_bits) ?max_bytes ?spill_path () =
  if page_bits < 4 || page_bits > 22 then invalid_arg "Node_arena.create: page_bits must be in [4, 22]";
  let slots_per_page = 1 lsl page_bits in
  let ints_per_page = slots_per_page * 4 in
  let page_bytes = ints_per_page * 8 in
  let capped, max_resident =
    match max_bytes with
    | None -> (false, max_int)
    | Some b ->
      if b <= 0 then invalid_arg "Node_arena.create: max_bytes must be positive";
      (* At least the permanently pinned terminal page, the allocation
         tail and one victim candidate, or the pool cannot turn over. *)
      (true, max 3 (b / page_bytes))
  in
  let spine = 8 in
  {
    page_bits;
    page_mask = slots_per_page - 1;
    slots_per_page;
    ints_per_page;
    capped;
    max_resident;
    pages = Array.make spine empty_page;
    num_pages = 0;
    resident = 0;
    pins = Array.make spine 0;
    refbit = Bytes.make spine '\000';
    dirty = Bytes.make spine '\000';
    on_disk = Bytes.make spine '\000';
    hand = 0;
    spill_path;
    spill_real_path = None;
    spill_fd = None;
    spill_buf = Bytes.create ((ints_per_page * 8) + 8);
    slot_bytes = (ints_per_page * 8) + 8;
    tail = -1;
    evictions = 0;
    fault_ins = 0;
    spill_writes = 0;
    spill_reads = 0;
    peak_resident = 0;
  }

let capacity a = a.num_pages * a.slots_per_page
let page_bytes a = a.ints_per_page * 8
let total_bytes a = a.num_pages * page_bytes a
let resident_bytes a = a.resident * page_bytes a

let pinned_pages a =
  let c = ref 0 in
  for p = 0 to a.num_pages - 1 do
    if a.pins.(p) > 0 then incr c
  done;
  !c

(* --- Spill file --- *)

(* Scratch names embed the creator's pid ([arena.<pid>.spill] when a
   driver points [spill_path] into its store, or
   [whalelam-arena.<pid>.<rand>.spill] in the temp directory) so
   {!sweep_stale_spills} can tell abandoned debris from a live solve's
   working file. *)
let temp_spill_prefix () = Printf.sprintf "whalelam-arena.%d." (Unix.getpid ())

let spill_owner_pid name =
  match String.split_on_char '.' name with
  | base :: pid :: rest when base = "arena" || base = "whalelam-arena" -> (
    match List.rev rest with
    | "spill" :: _ -> int_of_string_opt pid
    | _ -> None)
  | _ -> None

(* Remove orphaned spill scratch files under [dir] — debris a SIGKILLed
   capped solve had no chance to [dispose].  Triple guard before
   deleting: the name's embedded pid is not ours, that pid is no longer
   alive (ESRCH; EPERM means alive-but-foreign, keep it), and the file
   has not been touched for [max_age_s] — so a live solve's scratch is
   never touched, even across pid reuse.  Returns the removal count. *)
let sweep_stale_spills ?(max_age_s = 60.0) ~dir () =
  let self = Unix.getpid () in
  let now = Unix.gettimeofday () in
  let removed = ref 0 in
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        match spill_owner_pid name with
        | Some pid when pid <> self ->
          let alive =
            match Unix.kill pid 0 with
            | () -> true
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
            | exception Unix.Unix_error _ -> true
          in
          if not alive then begin
            let path = Filename.concat dir name in
            match Unix.stat path with
            | st when now -. st.Unix.st_mtime >= max_age_s ->
              Faults.fs_op ("remove " ^ path);
              (try Sys.remove path with Sys_error _ -> ());
              incr removed
            | _ -> ()
            | exception Unix.Unix_error _ -> ()
          end
        | Some _ | None -> ())
      entries);
  !removed

let ensure_fd a =
  match a.spill_fd with
  | Some fd -> fd
  | None ->
    Faults.fs_op "arena-spill-open";
    let path =
      match a.spill_path with
      | Some p -> p
      | None -> Filename.temp_file (temp_spill_prefix ()) ".spill"
    in
    (match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 with
    | fd ->
      a.spill_real_path <- Some path;
      a.spill_fd <- Some fd;
      fd
    | exception Unix.Unix_error (e, _, _) ->
      internal "arena: cannot open spill file %s: %s" path (Unix.error_message e))

let seek_slot fd a p = ignore (Unix.lseek fd (p * a.slot_bytes) Unix.SEEK_SET)

let write_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd buf !off (len - !off) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", ""));
    off := !off + n
  done

let read_all fd buf =
  let len = Bytes.length buf in
  let off = ref 0 in
  while !off < len do
    let n = Unix.read fd buf !off (len - !off) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "read", ""));
    off := !off + n
  done

(* Close and delete the scratch file; [dispose]'s body, shared with the
   spill-write failure path. *)
let close_spill a =
  (match a.spill_fd with
  | Some fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    a.spill_fd <- None
  | None -> ());
  match a.spill_real_path with
  | Some p ->
    (try Sys.remove p with Sys_error _ -> ());
    a.spill_real_path <- None
  | None -> ()

let spill_write a p pg =
  let fd = ensure_fd a in
  let buf = a.spill_buf in
  let data_bytes = a.ints_per_page * 8 in
  for i = 0 to a.ints_per_page - 1 do
    Bytes.set_int64_le buf (i * 8) (Int64.of_int pg.(i))
  done;
  let crc = Crc32.update 0 (Bytes.unsafe_to_string buf) ~pos:0 ~len:data_bytes in
  Bytes.set_int64_le buf data_bytes (Int64.of_int crc);
  (try
     Faults.fs_op "arena-spill-write";
     seek_slot fd a p;
     write_all fd buf
   with Unix.Unix_error (e, _, _) ->
     (* A failed spill (disk full, I/O error) aborts the solve with a
        structured error before any pool state mutates; release the
        scratch eagerly — the manager is dead to further spilling, and
        holding the fd until [dispose] would pin disk space exactly
        when the disk just ran out. *)
     close_spill a;
     internal "arena: spill write failed for page %d: %s" p (Unix.error_message e));
  a.spill_writes <- a.spill_writes + 1

let spill_read a p pg =
  let fd =
    match a.spill_fd with
    | Some fd -> fd
    | None -> internal "arena: page %d marked on disk but no spill file exists" p
  in
  let buf = a.spill_buf in
  let data_bytes = a.ints_per_page * 8 in
  Faults.fs_op "arena-spill-read";
  (try
     seek_slot fd a p;
     read_all fd buf
   with Unix.Unix_error (e, _, _) -> internal "arena: spill read failed for page %d: %s" p (Unix.error_message e));
  let stored = Int64.to_int (Bytes.get_int64_le buf data_bytes) land 0xFFFFFFFF in
  let actual = Crc32.update 0 (Bytes.unsafe_to_string buf) ~pos:0 ~len:data_bytes in
  if stored <> actual then
    internal "arena: spill page %d checksum mismatch (slot says crc32 %s, content is %s)" p (Crc32.to_hex stored)
      (Crc32.to_hex actual);
  for i = 0 to a.ints_per_page - 1 do
    pg.(i) <- Int64.to_int (Bytes.get_int64_le buf (i * 8))
  done;
  a.spill_reads <- a.spill_reads + 1

(* --- Replacement --- *)

(* Drop one resident page.  The write barrier: only dirty pages (or
   pages that never hit the disk) are written; a clean page with a
   valid slot is detached for free.  Any failure propagates before the
   pool is touched, so the page simply stays resident. *)
let evict_page a p =
  let pg = a.pages.(p) in
  if Bytes.get a.dirty p = '\001' || Bytes.get a.on_disk p = '\000' then begin
    spill_write a p pg;
    Bytes.set a.on_disk p '\001';
    Bytes.set a.dirty p '\000'
  end;
  if a.capped then Faults.fs_op "arena-evict";
  a.pages.(p) <- empty_page;
  a.resident <- a.resident - 1;
  a.evictions <- a.evictions + 1

(* One clock sweep: skip spilled and pinned pages, give referenced
   pages a second chance, evict the first quiescent one.  Bounded at
   two revolutions; false = everything evictable is pinned, and the
   caller runs over cap rather than deadlock. *)
let evict_one a =
  let n = a.num_pages in
  let budget = ref ((2 * n) + 1) in
  let victim = ref (-1) in
  while !victim < 0 && !budget > 0 do
    decr budget;
    let p = a.hand in
    a.hand <- (if p + 1 >= n then 0 else p + 1);
    if a.pages.(p) != empty_page && a.pins.(p) = 0 then
      if Bytes.get a.refbit p = '\001' then Bytes.set a.refbit p '\000' else victim := p
  done;
  if !victim >= 0 then begin
    evict_page a !victim;
    true
  end
  else false

let make_room a = if a.capped then while a.resident >= a.max_resident && evict_one a do () done

let note_resident a =
  a.resident <- a.resident + 1;
  if a.resident > a.peak_resident then a.peak_resident <- a.resident

(* --- Pool operations --- *)

let fault_in a p =
  if p < 0 || p >= a.num_pages then invalid_arg "Node_arena.fault_in: page out of range";
  let cur = a.pages.(p) in
  if cur != empty_page then cur
  else begin
    Faults.fs_op "arena-fault-in";
    if Bytes.get a.on_disk p = '\000' then internal "arena: page %d faulted in with no disk copy" p;
    make_room a;
    let pg = Array.make a.ints_per_page (-1) in
    spill_read a p pg;
    (* Only now is the pool mutated: a failed read leaves the page
       spilled and the arena consistent. *)
    a.pages.(p) <- pg;
    note_resident a;
    Bytes.set a.refbit p '\001';
    Bytes.set a.dirty p '\000';
    a.fault_ins <- a.fault_ins + 1;
    pg
  end

let pin a p =
  if p < 0 || p >= a.num_pages then invalid_arg "Node_arena.pin: page out of range";
  if a.capped then Faults.fs_op "arena-pin";
  if a.pages.(p) == empty_page then ignore (fault_in a p);
  a.pins.(p) <- a.pins.(p) + 1

let unpin a p =
  if p < 0 || p >= a.num_pages || a.pins.(p) <= 0 then invalid_arg "Node_arena.unpin: page not pinned";
  a.pins.(p) <- a.pins.(p) - 1

let set_tail a p =
  let old = a.tail in
  a.tail <- p;
  pin a p;
  if old >= 0 then unpin a old

let grow_spine a want =
  if want > Array.length a.pages then begin
    let cap = ref (max 8 (Array.length a.pages)) in
    while !cap < want do
      cap := !cap * 2
    done;
    let cap = !cap in
    let pages = Array.make cap empty_page in
    Array.blit a.pages 0 pages 0 a.num_pages;
    a.pages <- pages;
    let pins = Array.make cap 0 in
    Array.blit a.pins 0 pins 0 a.num_pages;
    a.pins <- pins;
    let grow_bytes b =
      let b' = Bytes.make cap '\000' in
      Bytes.blit b 0 b' 0 (Bytes.length b);
      b'
    in
    a.refbit <- grow_bytes a.refbit;
    a.dirty <- grow_bytes a.dirty;
    a.on_disk <- grow_bytes a.on_disk
  end

let add_page a =
  let p = a.num_pages in
  grow_spine a (p + 1);
  make_room a;
  a.num_pages <- p + 1;
  a.pages.(p) <- Array.make a.ints_per_page (-1);
  (* A fresh page has no disk copy yet, so it is born dirty. *)
  Bytes.set a.dirty p '\001';
  Bytes.set a.on_disk p '\000';
  Bytes.set a.refbit p '\001';
  a.pins.(p) <- 0;
  note_resident a;
  p

(* Compaction hand-off: replace the whole page set with [fresh] (all
   resident, freshly built outside the pool), drop every old page and
   every stale spill slot, and only then squeeze back under the cap. *)
let swap a fresh n =
  if n > Array.length fresh then invalid_arg "Node_arena.swap";
  grow_spine a n;
  let old_n = a.num_pages in
  for p = 0 to n - 1 do
    a.pages.(p) <- fresh.(p);
    a.pins.(p) <- 0;
    Bytes.set a.dirty p '\001';
    Bytes.set a.on_disk p '\000';
    Bytes.set a.refbit p '\001'
  done;
  for p = n to old_n - 1 do
    a.pages.(p) <- empty_page;
    a.pins.(p) <- 0;
    Bytes.set a.dirty p '\000';
    Bytes.set a.on_disk p '\000';
    Bytes.set a.refbit p '\000'
  done;
  a.num_pages <- n;
  a.resident <- n;
  if a.resident > a.peak_resident then a.peak_resident <- a.resident;
  a.hand <- 0;
  a.tail <- -1;
  (* The terminal page is permanently pinned (re-established here
     because the pin counts were reset). *)
  if n > 0 then a.pins.(0) <- 1;
  if a.capped then while a.resident > a.max_resident && evict_one a do () done

let adopt a pages =
  if a.capped || a.num_pages > 0 then invalid_arg "Node_arena.adopt: needs an empty uncapped arena";
  let n = Array.length pages in
  grow_spine a n;
  Array.blit pages 0 a.pages 0 n;
  a.num_pages <- n;
  a.resident <- n;
  a.peak_resident <- n

let dispose a = close_spill a
