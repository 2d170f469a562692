(* Hash-consed OBDD manager.

   Nodes are packed stride-4 records [var; low; high; next]; slot 0 and
   1 are the terminals.  The packing keeps a node's fields on one cache
   line — the kernels are memory-latency bound on large working sets.
   Storage is a {!Node_arena}: fixed-size pages of packed records
   behind a pinning buffer pool.  Slot [n] lives on page
   [n lsr page_bits] at record [n land page_mask]; an uncapped arena
   keeps every page resident forever, so the accessor is one extra
   indirection over the old flat array, while a byte-capped arena
   spills cold pages to a CRC'd scratch file and faults them back in
   on access.  The unique table is a chained hash whose bucket array
   tracks the arena capacity (load factor <= 1); chains are threaded
   through [next].  Every slot below [num_slots] holds a live node:
   allocation is a bump at [num_slots], and only a collection frees.

   The operation cache is a single direct-mapped array with stride-5
   entries [op; a; b; c; result]; all memoized operations share it,
   distinguished by [op].  Hit/miss counters are kept per operation
   class.  The hot binary connectives (and/or/diff) have specialized
   recursive kernels with their terminal rules inlined; the generic
   [apply] survives only for the rare connectives (xor/imp/biimp).

   GC is mark-and-compact from registered roots and is only ever
   invoked explicitly, so in-flight intermediate results cannot be
   collected.  A collection renumbers the survivors, clustering them
   by variable level so that the recursive kernels — which walk level
   by level — touch consecutive slots and therefore consecutive pages.
   Renumbering requires every retained handle to be reachable through
   the remap protocol: [add_root] refs and [add_root_list] lists are
   rewritten in place, and [on_remap] hooks let layers with private
   handle storage rewrite themselves.  [add_root_fn] functions are
   marked but NOT remapped; their handles must also be covered by a
   ref, list or hook.  The op cache is rebuilt through the relocation
   map: entries whose operands and result all survive stay warm under
   their new numbers, the rest are dropped.  Marking uses a persistent
   byte buffer and an explicit stack, both reused across collections,
   so marking does no per-call allocation and cannot overflow the
   OCaml stack on deep BDDs.  [support] and [node_count] likewise use
   an explicit stack with a reusable visited-stamp array instead of
   per-call hash tables.

   Reads of node fields may hold a page array across recursive calls:
   eviction detaches a page from the pool without mutating the array,
   and a live node's [var]/[low]/[high] are immutable outside GC, so a
   detached snapshot is always coherent for those fields.  Writers
   never hold a page across a call that can fault. *)

module A = Node_arena

type t = int

type varmap = {
  map_id : int;
  map : int array; (* indexed by variable; identity beyond its length *)
  monotone : bool; (* non-decreasing over all variables: order-preserving
                      on any support it is injective on *)
  identity : bool;
}

(* Operation classes for the per-class cache counters. *)
let cl_and = 0
let cl_or = 1
let cl_diff = 2
let cl_apply_other = 3 (* xor / imp / biimp *)
let cl_not = 4
let cl_ite = 5
let cl_exist = 6
let cl_relprod = 7
let cl_replace = 8
let n_classes = 9
let class_names = [| "and"; "or"; "diff"; "apply-other"; "not"; "ite"; "exist"; "relprod"; "replace" |]

type man = {
  arena : A.t; (* paged node storage; slot n = page (n lsr pbits), record (n land pmask) *)
  pbits : int; (* copies of the arena geometry, saving a load on the hot path *)
  pmask : int;
  base : int; (* overlay: first own handle, below it the shared snapshot; 0 = plain *)
  snap_buckets : int array; (* overlay: the snapshot's read-only unique table *)
  mutable buckets : int array; (* heads, -1 = empty *)
  mutable num_slots : int; (* next fresh slot; every slot below it is live *)
  mutable peak_live : int;
  mutable nvars : int;
  mutable cache : int array;
  mutable cache_mask : int;
  cache_h : int array; (* per-class hits *)
  cache_m : int array; (* per-class misses *)
  mutable map_counter : int;
  mutable roots : t ref list;
  mutable root_lists : t list ref list;
  mutable root_fns : (unit -> t list) list;
  mutable remap_hooks : ((t -> t) -> unit) list;
  mutable gcs : int;
  mutable marks : Bytes.t; (* persistent GC mark buffer *)
  mutable stack : int array; (* persistent traversal stack (GC / support / node_count) *)
  mutable visited : int array; (* node visit stamps for support/node_count *)
  mutable var_seen : int array; (* variable visit stamps for support *)
  mutable stamp : int;
  mutable allocs : int; (* total fresh-node allocations, ever *)
  mutable budget : Budget.t option;
  (* Compaction scratch, retained across collections like [marks]: the
     previous cache array (swapped back in remapped), and the
     relocation / destination-order tables.  Without these each
     collection allocates and frees ~10 MB on a gantt-sized table. *)
  mutable cache_scratch : int array;
  mutable reloc_scratch : int array;
  mutable order_scratch : int array;
  (* Overlay only: the cache slots stored since the last [reset] whose
     entry may name an own handle; a count past the log's length means
     it overflowed and [reset] sweeps the whole (fixed-size) cache. *)
  cache_log : int array;
  mutable cache_logged : int;
}

exception Limit_exceeded of Budget.reason

(* The budget is tested on the fresh-allocation slow path of [mk] only,
   once every [budget_check_interval] allocations: cache-hit lookups
   (the vast majority of [mk] calls on a warm solve) pay nothing, and
   the live-node count can overshoot a limit by at most the interval.
   Raising here is safe at any point: the new node is not yet linked
   into the table, completed operations are already cached, and
   in-flight intermediates are simply garbage for the next [gc]. *)
let budget_check_interval = 4096

let set_budget m b = m.budget <- b
let allocations m = m.allocs

let bdd_false = 0
let bdd_true = 1
let terminal_var = max_int

let is_const n = n < 2
let is_true n = n = 1
let is_false n = n = 0

(* --- Paged node access ---

   The fast path is: two loads (spine, page), a physical-equality test
   against the empty-page atom, and the indexed read.  [fault_page] is
   the out-of-line slow path; on an uncapped arena it is unreachable
   (every page stays resident).  The reference bit feeding clock
   replacement is only maintained on capped arenas, keeping the common
   uncapped manager free of the extra store. *)

let[@inline never] fault_page m p = A.fault_in m.arena p

let[@inline] node_page m n =
  let a = m.arena in
  let p = n lsr m.pbits in
  let pg = a.A.pages.(p) in
  if pg != A.empty_page then begin
    if a.A.capped then Bytes.unsafe_set a.A.refbit p '\001';
    pg
  end
  else fault_page m p

(* Page fetch for writers: additionally marks the page dirty so the
   eviction write barrier re-spills it.  Callers must finish their
   writes before the next call that can fault. *)
let[@inline] wr_page m n =
  let a = m.arena in
  let p = n lsr m.pbits in
  let pg = a.A.pages.(p) in
  let pg = if pg != A.empty_page then pg else fault_page m p in
  if a.A.capped then begin
    Bytes.unsafe_set a.A.refbit p '\001';
    Bytes.unsafe_set a.A.dirty p '\001'
  end;
  pg

let[@inline] nvar m n = (node_page m n).((n land m.pmask) * 4)
let[@inline] nlow m n = (node_page m n).(((n land m.pmask) * 4) + 1)
let[@inline] nhigh m n = (node_page m n).(((n land m.pmask) * 4) + 2)

let var m n =
  if is_const n then invalid_arg "Bdd.var: terminal";
  nvar m n

let low m n =
  if is_const n then invalid_arg "Bdd.low: terminal";
  nlow m n

let high m n =
  if is_const n then invalid_arg "Bdd.high: terminal";
  nhigh m n

(* Level of a node with terminals at the bottom of the order.  The
   terminal slots hold [terminal_var], so the plain read is already
   the level. *)
let level m n = nvar m n

(* A plain manager's own nodes start after the terminals, an
   overlay's at [base].  (Not [max]: that is a polymorphic compare,
   and this runs on every fresh node.) *)
let live_nodes m = m.num_slots - if m.base = 0 then 2 else m.base
let peak_live_nodes m = m.peak_live
let reset_peak m = m.peak_live <- live_nodes m
let gc_count m = m.gcs

let cache_stats m =
  let h = ref 0 and mi = ref 0 in
  for c = 0 to n_classes - 1 do
    h := !h + m.cache_h.(c);
    mi := !mi + m.cache_m.(c)
  done;
  (!h, !mi)

let cache_stats_by_class m = Array.to_list (Array.mapi (fun c name -> (name, m.cache_h.(c), m.cache_m.(c))) class_names)

let extend_vars m n = if n > m.nvars then m.nvars <- n

let hash3 a b c = (a * 12582917) lxor (b * 4256249) lxor (c * 741457)

let sweep_stale_spills = A.sweep_stale_spills

let make_man ~arena ~base ~snap_buckets ~buckets ~cache_bits ~nvars =
  {
    arena;
    pbits = arena.A.page_bits;
    pmask = arena.A.page_mask;
    base;
    snap_buckets;
    buckets = Array.make buckets (-1);
    num_slots = (if base = 0 then 2 else base);
    peak_live = 0;
    nvars;
    cache = Array.make ((1 lsl cache_bits) * 5) (-1);
    cache_mask = (1 lsl cache_bits) - 1;
    cache_h = Array.make n_classes 0;
    cache_m = Array.make n_classes 0;
    map_counter = 0;
    roots = [];
    root_lists = [];
    root_fns = [];
    remap_hooks = [];
    gcs = 0;
    marks = Bytes.create 0;
    stack = Array.make 1024 0;
    visited = [||];
    var_seen = [||];
    stamp = 0;
    allocs = 0;
    budget = None;
    cache_scratch = [||];
    reloc_scratch = [||];
    order_scratch = [||];
    cache_log = (if base > 0 then Array.make (1 lsl cache_bits) 0 else [||]);
    cache_logged = 0;
  }

let create ?(node_hint = 1 lsl 16) ?(cache_bits = 16) ?page_bits ?max_bytes ?spill_path ~nvars () =
  (* A capped manager bound for the temp directory sweeps its
     predecessors' orphaned scratch files first — a SIGKILLed capped
     solve never reaches [dispose].  Drivers that point [spill_path]
     somewhere of their own sweep that directory themselves. *)
  (match (max_bytes, spill_path) with
  | Some _, None -> ignore (A.sweep_stale_spills ~dir:(Filename.get_temp_dir_name ()) ())
  | _ -> ());
  let arena = A.create ?page_bits ?max_bytes ?spill_path () in
  let bcap =
    (* Bucket count tracks the arena capacity (load factor <= 1), so
       start at the larger of the hint and one page. *)
    let want = max 1024 (max node_hint arena.A.slots_per_page) in
    let rec up c = if c >= want then c else up (c * 2) in
    up 1024
  in
  let m = make_man ~arena ~base:0 ~snap_buckets:[| -1 |] ~buckets:bcap ~cache_bits ~nvars in
  let p0 = A.add_page arena in
  A.set_tail arena p0;
  (* The terminal page carries a permanent extra pin on top of any
     tail pin, so the terminals can never be victims. *)
  arena.A.pins.(0) <- arena.A.pins.(0) + 1;
  (* Terminals: self-looping pseudo-nodes never reached by recursion. *)
  let pg = arena.A.pages.(0) in
  pg.(0) <- terminal_var;
  pg.(1) <- 0;
  pg.(2) <- 0;
  pg.(4) <- terminal_var;
  pg.(5) <- 1;
  pg.(6) <- 1;
  m

let dispose m = A.dispose m.arena

(* Total bytes of node-table storage: every arena page (resident or
   spilled — spilled pages still count against a [Budget] byte limit,
   which bounds the problem size, not the cache size) plus the bucket
   array.  The op cache is excluded: it is bounded by
   [max_cache_entries] regardless of problem size.  An overlay counts
   its own pages only: the shared snapshot's 32-byte records below
   [base] are not its storage. *)
let table_bytes m = A.total_bytes m.arena - (32 * m.base) + (8 * Array.length m.buckets)

type arena_stats = {
  page_bits : int;
  pages_total : int;
  pages_resident : int;
  pages_pinned : int;
  peak_pages_resident : int;
  evictions : int;
  fault_ins : int;
  spill_reads : int;
  spill_writes : int;
  table_bytes : int;
  resident_bytes : int;
}

let arena_stats m =
  let a = m.arena in
  {
    page_bits = a.A.page_bits;
    pages_total = a.A.num_pages;
    pages_resident = a.A.resident;
    pages_pinned = A.pinned_pages a;
    peak_pages_resident = a.A.peak_resident;
    evictions = a.A.evictions;
    fault_ins = a.A.fault_ins;
    spill_reads = a.A.spill_reads;
    spill_writes = a.A.spill_writes;
    table_bytes = table_bytes m;
    resident_bytes = A.resident_bytes a;
  }

(* Rebuild every bucket chain.  Page-wise so each page is faulted at
   most once; the chains are threaded through [next], so the whole
   arena is rewritten and every touched page goes dirty.  An overlay
   rehashes its own pages only: the snapshot's are shared. *)
let rehash m =
  Array.fill m.buckets 0 (Array.length m.buckets) (-1);
  let mask = Array.length m.buckets - 1 in
  let a = m.arena in
  let spp = a.A.slots_per_page in
  for p = m.base lsr m.pbits to a.A.num_pages - 1 do
    let base = p * spp in
    let lo = if p = 0 then 2 else 0 in
    let hi = min spp (m.num_slots - base) in
    if hi > lo then begin
      let pg = A.fault_in a p in
      if a.A.capped then begin
        Bytes.set a.A.refbit p '\001';
        Bytes.set a.A.dirty p '\001'
      end;
      for s = lo to hi - 1 do
        let i = s * 4 in
        let b = hash3 pg.(i) pg.(i + 1) pg.(i + 2) land mask in
        pg.(i + 3) <- m.buckets.(b);
        m.buckets.(b) <- base + s
      done
    end
  done

(* The op cache tracks the node-table capacity (up to a fixed maximum):
   a direct-mapped cache much smaller than the working set thrashes and
   the hit rate collapses.  Doubling re-inserts the surviving entries at
   their new slots, so the cost is amortized against the table growth
   that triggered it. *)
let max_cache_entries = 1 lsl 18

let grow_cache m =
  let old = m.cache in
  let entries' = (m.cache_mask + 1) * 2 in
  let fresh = Array.make (entries' * 5) (-1) in
  m.cache <- fresh;
  m.cache_mask <- entries' - 1;
  for s = 0 to (Array.length old / 5) - 1 do
    let i = s * 5 in
    let op = old.(i) in
    if op >= 0 then begin
      let a = old.(i + 1) and b = old.(i + 2) and c = old.(i + 3) in
      let j = (hash3 (op + (a * 31)) b c land m.cache_mask) * 5 in
      fresh.(j) <- op;
      fresh.(j + 1) <- a;
      fresh.(j + 2) <- b;
      fresh.(j + 3) <- c;
      fresh.(j + 4) <- old.(i + 4)
    end
  done

(* Growing is appending one page; the bucket array (and with it the op
   cache) only doubles when the capacity outruns it, so existing chains
   are left untouched on the common page-append path.  An overlay
   sizes its buckets to its own pages and keeps its cache size fixed,
   so the slots in [cache_log] stay valid. *)
let grow m =
  let p = A.add_page m.arena in
  A.set_tail m.arena p;
  let cap = A.capacity m.arena - m.base in
  if cap > Array.length m.buckets then begin
    let nb = ref (Array.length m.buckets) in
    while !nb < cap do
      nb := !nb * 2
    done;
    m.buckets <- Array.make !nb (-1);
    rehash m;
    if m.base = 0 && m.cache_mask + 1 < !nb && m.cache_mask + 1 < max_cache_entries then grow_cache m
  end

let budget_check m =
  match m.budget with
  | None -> ()
  | Some b -> (
    match Budget.check_nodes b ~live:(live_nodes m) ~allocs:m.allocs with
    | Some reason -> raise (Limit_exceeded reason)
    | None -> ())

(* The node [(v, l, h)] on the hash chain starting at [n], or -1. *)
let rec chain_find m n v l h =
  if n = -1 then -1
  else begin
    let pg = node_page m n in
    let i = (n land m.pmask) * 4 in
    if pg.(i) = v && pg.(i + 1) = l && pg.(i + 2) = h then n else chain_find m pg.(i + 3) v l h
  end

let[@inline] own_find m v l h = chain_find m m.buckets.(hash3 v l h land (Array.length m.buckets - 1)) v l h

let mk m v l h =
  if l = h then l
  else begin
    (* Snapshot nodes never point at overlay nodes, so only a node over
       two snapshot children can already be in the snapshot.  On a
       plain manager [base] is 0 and this is one failed compare. *)
    let found =
      if l < m.base && h < m.base then begin
        let s = chain_find m m.snap_buckets.(hash3 v l h land (Array.length m.snap_buckets - 1)) v l h in
        if s >= 0 then s else own_find m v l h
      end
      else own_find m v l h
    in
    if found >= 0 then found
    else begin
      m.allocs <- m.allocs + 1;
      if m.allocs land (budget_check_interval - 1) = 0 then budget_check m;
      if m.num_slots >= A.capacity m.arena then grow m;
      let slot = m.num_slots in
      m.num_slots <- slot + 1;
      (* All writes happen against one fresh page fetch with nothing
         that can fault in between (the bucket array is flat). *)
      let pg = wr_page m slot in
      let i = (slot land m.pmask) * 4 in
      pg.(i) <- v;
      pg.(i + 1) <- l;
      pg.(i + 2) <- h;
      (* Recompute the bucket: [grow] may have changed the mask. *)
      let b = hash3 v l h land (Array.length m.buckets - 1) in
      pg.(i + 3) <- m.buckets.(b);
      m.buckets.(b) <- slot;
      let live = live_nodes m in
      if live > m.peak_live then m.peak_live <- live;
      slot
    end
  end

let ithvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.ithvar";
  mk m i bdd_false bdd_true

let nithvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.nithvar";
  mk m i bdd_true bdd_false

(* Operation codes for the shared cache. *)
let op_and = 1
let op_or = 2
let op_xor = 3
let op_diff = 4
let op_imp = 5
let op_biimp = 6
let op_not = 7
let op_ite = 8
let op_exist = 9
let op_relprod = 10
let op_replace = 11

let cache_lookup m cls op a b c =
  let slot = hash3 (op + (a * 31)) b c land m.cache_mask in
  let i = slot * 5 in
  let cache = m.cache in
  if cache.(i) = op && cache.(i + 1) = a && cache.(i + 2) = b && cache.(i + 3) = c then begin
    m.cache_h.(cls) <- m.cache_h.(cls) + 1;
    cache.(i + 4)
  end
  else begin
    m.cache_m.(cls) <- m.cache_m.(cls) + 1;
    -1
  end

let cache_store m op a b c r =
  let slot = hash3 (op + (a * 31)) b c land m.cache_mask in
  let i = slot * 5 in
  let cache = m.cache in
  cache.(i) <- op;
  cache.(i + 1) <- a;
  cache.(i + 2) <- b;
  cache.(i + 3) <- c;
  cache.(i + 4) <- r;
  let base = m.base in
  if base > 0 && (r >= base || a >= base || b >= base || c >= base) then begin
    let k = m.cache_logged in
    if k < Array.length m.cache_log then m.cache_log.(k) <- slot;
    m.cache_logged <- k + 1
  end

let rec mk_not m f =
  if f = bdd_false then bdd_true
  else if f = bdd_true then bdd_false
  else begin
    let cached = cache_lookup m cl_not op_not f 0 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f in
      let fi = (f land m.pmask) * 4 in
      let r = mk m pf.(fi) (mk_not m pf.(fi + 1)) (mk_not m pf.(fi + 2)) in
      cache_store m op_not f 0 0 r;
      r
    end
  end

(* Specialized kernels for the hot connectives: terminal rules inlined,
   no per-node op dispatch.  Once both operands are non-terminal the
   var field can be read directly (terminal slots hold [terminal_var],
   so the comparisons still order levels correctly).  Each node's page
   is fetched once; the fetched array stays coherent across the
   recursive calls because live node fields are immutable and eviction
   never mutates a detached page. *)
let rec and_rec m f g =
  if f = g || g = bdd_true then f
  else if f = bdd_true then g
  else if f = bdd_false || g = bdd_false then bdd_false
  else begin
    (* Canonicalize the commutative operands for better cache hits. *)
    let f, g = if f > g then (g, f) else (f, g) in
    let cached = cache_lookup m cl_and op_and f g 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f and pg = node_page m g in
      let fi = (f land m.pmask) * 4 and gi = (g land m.pmask) * 4 in
      let vf = pf.(fi) and vg = pg.(gi) in
      let r =
        if vf = vg then mk m vf (and_rec m pf.(fi + 1) pg.(gi + 1)) (and_rec m pf.(fi + 2) pg.(gi + 2))
        else if vf < vg then mk m vf (and_rec m pf.(fi + 1) g) (and_rec m pf.(fi + 2) g)
        else mk m vg (and_rec m f pg.(gi + 1)) (and_rec m f pg.(gi + 2))
      in
      cache_store m op_and f g 0 r;
      r
    end
  end

and or_rec m f g =
  if f = g || g = bdd_false then f
  else if f = bdd_false then g
  else if f = bdd_true || g = bdd_true then bdd_true
  else begin
    let f, g = if f > g then (g, f) else (f, g) in
    let cached = cache_lookup m cl_or op_or f g 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f and pg = node_page m g in
      let fi = (f land m.pmask) * 4 and gi = (g land m.pmask) * 4 in
      let vf = pf.(fi) and vg = pg.(gi) in
      let r =
        if vf = vg then mk m vf (or_rec m pf.(fi + 1) pg.(gi + 1)) (or_rec m pf.(fi + 2) pg.(gi + 2))
        else if vf < vg then mk m vf (or_rec m pf.(fi + 1) g) (or_rec m pf.(fi + 2) g)
        else mk m vg (or_rec m f pg.(gi + 1)) (or_rec m f pg.(gi + 2))
      in
      cache_store m op_or f g 0 r;
      r
    end
  end

and diff_rec m f g =
  (* f AND NOT g; not commutative, so no operand canonicalization. *)
  if f = bdd_false || g = bdd_true || f = g then bdd_false
  else if g = bdd_false then f
  else if f = bdd_true then mk_not m g
  else begin
    let cached = cache_lookup m cl_diff op_diff f g 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f and pg = node_page m g in
      let fi = (f land m.pmask) * 4 and gi = (g land m.pmask) * 4 in
      let vf = pf.(fi) and vg = pg.(gi) in
      let r =
        if vf = vg then mk m vf (diff_rec m pf.(fi + 1) pg.(gi + 1)) (diff_rec m pf.(fi + 2) pg.(gi + 2))
        else if vf < vg then mk m vf (diff_rec m pf.(fi + 1) g) (diff_rec m pf.(fi + 2) g)
        else mk m vg (diff_rec m f pg.(gi + 1)) (diff_rec m f pg.(gi + 2))
      in
      cache_store m op_diff f g 0 r;
      r
    end
  end

(* Terminal rules for the remaining binary connectives; returns -1 when
   no rule applies and the recursion must proceed. *)
let apply_terminal m op f g =
  if op = op_xor then
    if f = g then bdd_false
    else if f = bdd_false then g
    else if g = bdd_false then f
    else if f = bdd_true then mk_not m g
    else if g = bdd_true then mk_not m f
    else -1
  else if op = op_imp then
    if f = bdd_false || g = bdd_true then bdd_true
    else if f = g then bdd_true
    else if f = bdd_true then g
    else if g = bdd_false then mk_not m f
    else -1
  else if op = op_biimp then
    if f = g then bdd_true
    else if f = bdd_true then g
    else if g = bdd_true then f
    else if f = bdd_false then mk_not m g
    else if g = bdd_false then mk_not m f
    else -1
  else invalid_arg "Bdd.apply_terminal: bad op"

let commutative op = op = op_xor || op = op_biimp

let rec apply m op f g =
  let t = apply_terminal m op f g in
  if t >= 0 then t
  else begin
    let f, g = if commutative op && f > g then (g, f) else (f, g) in
    let cached = cache_lookup m cl_apply_other op f g 0 in
    if cached >= 0 then cached
    else begin
      let vf = level m f and vg = level m g in
      let v = if vf < vg then vf else vg in
      let f0, f1 = if vf = v then (nlow m f, nhigh m f) else (f, f) in
      let g0, g1 = if vg = v then (nlow m g, nhigh m g) else (g, g) in
      let r = mk m v (apply m op f0 g0) (apply m op f1 g1) in
      cache_store m op f g 0 r;
      r
    end
  end

let mk_and m f g = and_rec m f g
let mk_or m f g = or_rec m f g
let mk_diff m f g = diff_rec m f g
let mk_xor m f g = apply m op_xor f g
let mk_imp m f g = apply m op_imp f g
let mk_biimp m f g = apply m op_biimp f g

let rec mk_ite m f g h =
  if f = bdd_true then g
  else if f = bdd_false then h
  else if g = h then g
  else if g = bdd_true && h = bdd_false then f
  else if g = bdd_false && h = bdd_true then mk_not m f
  else begin
    let cached = cache_lookup m cl_ite op_ite f g h in
    if cached >= 0 then cached
    else begin
      let vf = level m f and vg = level m g and vh = level m h in
      let v = min vf (min vg vh) in
      let f0, f1 = if vf = v then (nlow m f, nhigh m f) else (f, f) in
      let g0, g1 = if vg = v then (nlow m g, nhigh m g) else (g, g) in
      let h0, h1 = if vh = v then (nlow m h, nhigh m h) else (h, h) in
      let r = mk m v (mk_ite m f0 g0 h0) (mk_ite m f1 g1 h1) in
      cache_store m op_ite f g h r;
      r
    end
  end

let cube_of_vars m vs =
  let sorted = List.sort_uniq compare vs in
  List.fold_right (fun v acc -> mk m v bdd_false acc) sorted bdd_true

(* Drop leading cube variables above (i.e. at smaller levels than) [v];
   they cannot occur in the function being quantified below [v]. *)
let rec skip_cube m cube v =
  if is_const cube then cube
  else begin
    let pc = node_page m cube in
    let ci = (cube land m.pmask) * 4 in
    if pc.(ci) < v then skip_cube m pc.(ci + 2) v else cube
  end

let rec exist_rec m cube f =
  if is_const f then f
  else begin
    let cube = skip_cube m cube (nvar m f) in
    if cube = bdd_true then f
    else begin
      let cached = cache_lookup m cl_exist op_exist f cube 0 in
      if cached >= 0 then cached
      else begin
        let pf = node_page m f in
        let fi = (f land m.pmask) * 4 in
        let v = pf.(fi) in
        let r =
          if nvar m cube = v then begin
            (* Once one branch saturates, the disjunction is decided:
               skip the other branch entirely. *)
            let cube' = nhigh m cube in
            let r0 = exist_rec m cube' pf.(fi + 1) in
            if r0 = bdd_true then bdd_true else or_rec m r0 (exist_rec m cube' pf.(fi + 2))
          end
          else mk m v (exist_rec m cube pf.(fi + 1)) (exist_rec m cube pf.(fi + 2))
        in
        cache_store m op_exist f cube 0 r;
        r
      end
    end
  end

let exist m ~cube f = exist_rec m cube f
let forall m ~cube f = mk_not m (exist_rec m cube (mk_not m f))

let rec relprod_rec m cube f g =
  if f = bdd_false || g = bdd_false then bdd_false
  else if f = g || g = bdd_true then exist_rec m cube f
  else if f = bdd_true then exist_rec m cube g
  else begin
    (* Both operands are internal nodes from here on. *)
    let vf = nvar m f and vg = nvar m g in
    let v = if vf < vg then vf else vg in
    let cube = skip_cube m cube v in
    if cube = bdd_true then and_rec m f g
    else begin
      let f, g, vf, vg = if f > g then (g, f, vg, vf) else (f, g, vf, vg) in
      let cached = cache_lookup m cl_relprod op_relprod f g cube in
      if cached >= 0 then cached
      else begin
        let pf = node_page m f and pg = node_page m g in
        let fi = (f land m.pmask) * 4 and gi = (g land m.pmask) * 4 in
        let f0, f1 = if vf = v then (pf.(fi + 1), pf.(fi + 2)) else (f, f) in
        let g0, g1 = if vg = v then (pg.(gi + 1), pg.(gi + 2)) else (g, g) in
        let r =
          if nvar m cube = v then begin
            let cube' = nhigh m cube in
            let r0 = relprod_rec m cube' f0 g0 in
            if r0 = bdd_true then bdd_true else or_rec m r0 (relprod_rec m cube' f1 g1)
          end
          else mk m v (relprod_rec m cube f0 g0) (relprod_rec m cube f1 g1)
        in
        cache_store m op_relprod f g cube r;
        r
      end
    end
  end

let relprod m ~cube f g = relprod_rec m cube f g

let make_map m pairs =
  let map = Array.init m.nvars (fun i -> i) in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= m.nvars || b < 0 || b >= m.nvars then invalid_arg "Bdd.make_map: variable out of range";
      map.(a) <- b)
    pairs;
  (* Order preservation: a non-decreasing map is strictly increasing on
     any variable set it is injective on, and [replace] requires
     injectivity on the support — so such maps can be rebuilt with
     plain [mk] instead of [mk_ite].  (Beyond the array the map is the
     identity; entries are < nvars, so the boundary is monotone too.) *)
  let monotone = ref true in
  let identity = ref true in
  Array.iteri
    (fun i b ->
      if b <> i then identity := false;
      if i > 0 && map.(i - 1) > b then monotone := false)
    map;
  m.map_counter <- m.map_counter + 1;
  { map_id = m.map_counter; map; monotone = !monotone; identity = !identity }

let map_is_monotone vm = vm.monotone

(* Order-preserving fast path: the renamed variable is in the same
   relative position, so the children can be rebuilt with a direct
   [mk] — no exponential ite reconstruction. *)
let rec replace_mono m vm f =
  if is_const f then f
  else begin
    let cached = cache_lookup m cl_replace op_replace f vm.map_id 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f in
      let fi = (f land m.pmask) * 4 in
      let v = pf.(fi) in
      let v' = if v < Array.length vm.map then vm.map.(v) else v in
      let l = replace_mono m vm pf.(fi + 1) in
      let h = replace_mono m vm pf.(fi + 2) in
      let r = mk m v' l h in
      cache_store m op_replace f vm.map_id 0 r;
      r
    end
  end

let rec replace_gen m vm f =
  if is_const f then f
  else begin
    let cached = cache_lookup m cl_replace op_replace f vm.map_id 0 in
    if cached >= 0 then cached
    else begin
      let pf = node_page m f in
      let fi = (f land m.pmask) * 4 in
      let v = pf.(fi) in
      let v' = if v < Array.length vm.map then vm.map.(v) else v in
      let l = replace_gen m vm pf.(fi + 1) in
      let h = replace_gen m vm pf.(fi + 2) in
      (* [mk_ite] rather than [mk]: correct even when the renaming does
         not preserve the variable order. *)
      let r = mk_ite m (ithvar m v') h l in
      cache_store m op_replace f vm.map_id 0 r;
      r
    end
  end

let replace m vm f = if vm.identity then f else if vm.monotone then replace_mono m vm f else replace_gen m vm f

(* --- Traversals (explicit stack + reusable visit stamps) --- *)

let stack_push m top n =
  if top = Array.length m.stack then m.stack <- Array.append m.stack (Array.make (Array.length m.stack) 0);
  m.stack.(top) <- n;
  top + 1

let fresh_stamp m =
  (* (Re)size the stamp arrays; a fresh array is all zeros, which no
     stamp ever equals because stamps start at 1. *)
  if Array.length m.visited < m.num_slots then m.visited <- Array.make (A.capacity m.arena) 0;
  if Array.length m.var_seen < m.nvars then m.var_seen <- Array.make (max m.nvars 16) 0;
  m.stamp <- m.stamp + 1;
  m.stamp

let support m f =
  if is_const f then []
  else begin
    let stamp = fresh_stamp m in
    let vars = ref [] in
    let top = ref 0 in
    let visit n =
      if not (is_const n) && m.visited.(n) <> stamp then begin
        m.visited.(n) <- stamp;
        top := stack_push m !top n
      end
    in
    visit f;
    while !top > 0 do
      decr top;
      let n = m.stack.(!top) in
      let pg = node_page m n in
      let i = (n land m.pmask) * 4 in
      let v = pg.(i) in
      if m.var_seen.(v) <> stamp then begin
        m.var_seen.(v) <- stamp;
        vars := v :: !vars
      end;
      visit pg.(i + 1);
      visit pg.(i + 2)
    done;
    List.sort compare !vars
  end

let node_count m f =
  if is_const f then 0
  else begin
    let stamp = fresh_stamp m in
    let count = ref 0 in
    let top = ref 0 in
    let visit n =
      if not (is_const n) && m.visited.(n) <> stamp then begin
        m.visited.(n) <- stamp;
        incr count;
        top := stack_push m !top n
      end
    in
    visit f;
    while !top > 0 do
      decr top;
      let n = m.stack.(!top) in
      let pg = node_page m n in
      let i = (n land m.pmask) * 4 in
      visit pg.(i + 1);
      visit pg.(i + 2)
    done;
    !count
  end

(* Generic satcount parameterized by a small semiring. *)
let satcount_gen m ~vars f ~zero ~two_pow ~add ~scale =
  let len = Array.length vars in
  let pos = Hashtbl.create len in
  Array.iteri (fun i v -> Hashtbl.add pos v i) vars;
  let memo = Hashtbl.create 64 in
  (* [count n i] = assignments of vars.(i..) satisfying n, where n's top
     variable has position >= i. *)
  let rec count n i =
    if n = bdd_false then zero
    else if n = bdd_true then two_pow (len - i)
    else begin
      let j =
        match Hashtbl.find_opt pos (nvar m n) with
        | Some j -> j
        | None -> invalid_arg "Bdd.satcount: support not included in vars"
      in
      let c =
        match Hashtbl.find_opt memo n with
        | Some c -> c
        | None ->
          let c = add (count (nlow m n) (j + 1)) (count (nhigh m n) (j + 1)) in
          Hashtbl.add memo n c;
          c
      in
      scale c (j - i)
    end
  in
  count f 0

let satcount m ~vars f =
  satcount_gen m ~vars f ~zero:0.0 ~two_pow:(fun k -> Float.pow 2.0 (float_of_int k)) ~add:( +. )
    ~scale:(fun c k -> c *. Float.pow 2.0 (float_of_int k))

let satcount_big m ~vars f =
  satcount_gen m ~vars f ~zero:Bignat.zero ~two_pow:Bignat.pow2 ~add:Bignat.add ~scale:(fun c k -> Bignat.shift_left c k)

let iter_sat m ~vars yield f =
  let len = Array.length vars in
  let assignment = Array.make len false in
  let rec go i n =
    if n <> bdd_false then
      if i = len then begin
        if n = bdd_true then yield assignment
        else invalid_arg "Bdd.iter_sat: support not included in vars"
      end
      else begin
        let vn = level m n in
        if vn = vars.(i) then begin
          assignment.(i) <- false;
          go (i + 1) (nlow m n);
          assignment.(i) <- true;
          go (i + 1) (nhigh m n)
        end
        else if vn > vars.(i) then begin
          (* n does not depend on vars.(i): both values satisfy. *)
          assignment.(i) <- false;
          go (i + 1) n;
          assignment.(i) <- true;
          go (i + 1) n
        end
        else invalid_arg "Bdd.iter_sat: vars must be sorted and include the support"
      end
  in
  go 0 f

(* --- Arithmetic primitives (LSB-first bit blocks) --- *)

let const_value m ~bits value =
  let w = Array.length bits in
  if w < Sys.int_size - 1 && value lsr w <> 0 then invalid_arg "Bdd.const_value: value too wide";
  let acc = ref bdd_true in
  for i = w - 1 downto 0 do
    let lit = if (value lsr i) land 1 = 1 then ithvar m bits.(i) else nithvar m bits.(i) in
    acc := mk_and m lit !acc
  done;
  !acc

let range m ~bits ~lo ~hi =
  if lo > hi then bdd_false
  else begin
    let w = Array.length bits in
    (* x <= hi, built LSB to MSB. *)
    let le = ref bdd_true in
    for i = 0 to w - 1 do
      let x = ithvar m bits.(i) in
      le := if (hi lsr i) land 1 = 1 then mk_ite m x !le bdd_true else mk_ite m x bdd_false !le
    done;
    (* x >= lo. *)
    let ge = ref bdd_true in
    for i = 0 to w - 1 do
      let x = ithvar m bits.(i) in
      ge := if (lo lsr i) land 1 = 1 then mk_ite m x !ge bdd_false else mk_ite m x bdd_true !ge
    done;
    mk_and m !le !ge
  end

let add_const m ~src ~dst ~delta =
  if Array.length src <> Array.length dst then invalid_arg "Bdd.add_const: width mismatch";
  if delta < 0 then invalid_arg "Bdd.add_const: negative delta";
  let w = Array.length src in
  let acc = ref bdd_true in
  let carry = ref bdd_false in
  for i = 0 to w - 1 do
    let s = ithvar m src.(i) and d = ithvar m dst.(i) in
    let di = (delta lsr i) land 1 = 1 in
    (* sum bit = s xor delta_i xor carry *)
    let s_xor_c = mk_xor m s !carry in
    let sum = if di then mk_not m s_xor_c else s_xor_c in
    acc := mk_and m !acc (mk_biimp m d sum);
    (* carry' = delta_i ? (s or carry) : (s and carry) *)
    carry := if di then mk_or m s !carry else mk_and m s !carry
  done;
  (* Exclude overflowing assignments: the final carry must be 0, and the
     part of delta beyond the width must be 0. *)
  if w < Sys.int_size - 1 && delta lsr w <> 0 then bdd_false else mk_and m !acc (mk_not m !carry)

let equal_blocks m ~src ~dst =
  if Array.length src <> Array.length dst then invalid_arg "Bdd.equal_blocks: width mismatch";
  let acc = ref bdd_true in
  for i = Array.length src - 1 downto 0 do
    acc := mk_and m (mk_biimp m (ithvar m src.(i)) (ithvar m dst.(i))) !acc
  done;
  !acc

let to_dot ?(var_name = fun i -> Printf.sprintf "x%d" i) m f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph bdd {\n";
  Buffer.add_string buf "  node0 [shape=box, label=\"0\"];\n";
  Buffer.add_string buf "  node1 [shape=box, label=\"1\"];\n";
  let seen = Hashtbl.create 64 in
  let rec go n =
    if not (is_const n) && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Buffer.add_string buf (Printf.sprintf "  node%d [label=%S];\n" n (var_name (nvar m n)));
      Buffer.add_string buf (Printf.sprintf "  node%d -> node%d [style=dashed];\n" n (nlow m n));
      Buffer.add_string buf (Printf.sprintf "  node%d -> node%d;\n" n (nhigh m n));
      go (nlow m n);
      go (nhigh m n)
    end
  in
  go f;
  (match f with
  | 0 | 1 -> ()
  | root -> Buffer.add_string buf (Printf.sprintf "  root [shape=none, label=\"\"];\n  root -> node%d;\n" root));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- Serialization (shared-DAG binary dump) ---

   BuDDy bdd_save-style format, extended to many roots so a whole
   store of relations persists as ONE reduced DAG — identical
   sub-functions across relations are written once (shared-structure
   persistence).  Layout, all integers unsigned 32-bit little-endian:

     bytes 0-7    magic "WLBDD02\n"
     bytes 8-19   nvars, node count N, root count R
     then N       (var, lo, hi) triples in topological (children-first)
                  order; node j has id j+2, ids 0/1 are the terminals,
                  and lo/hi must reference ids < j+2
     then R       root ids
     last 4       CRC-32 of every preceding byte (checksummed framing)

   The dump ids are assigned by a deterministic children-first walk of
   the roots, so two managers holding the same functions — regardless
   of their handle numbering, GC history or arena geometry — serialize to
   the same bytes: dumps double as canonical fingerprints for
   bit-identity checks across capped/uncapped runs.

   Loading verifies the trailing checksum FIRST, so any bit rot or
   truncation is reported as a checksum/size mismatch up front instead
   of surfacing as a confusing structural error (or worse, decoding to
   a wrong BDD); it then rebuilds through [mk], so hash consing
   re-establishes canonicity in the target manager regardless of its
   current table size or GC history.  Structural
   validation still rejects malformed-but-checksummed input
   ([Solver_error.Bad_input] carrying the byte offset) before any node
   is interned from a bad triple. *)

let magic = "WLBDD02\n"
let header_bytes = String.length magic + 12
let trailer_bytes = 4 (* CRC-32 *)

let serialize m roots =
  let buf = Buffer.create 4096 in
  let tri = Buffer.create 4096 in
  let ids = Hashtbl.create 1024 in
  Hashtbl.add ids bdd_false 0;
  Hashtbl.add ids bdd_true 1;
  let next = ref 2 in
  let stack = ref [] in
  let emit n =
    Hashtbl.add ids n !next;
    incr next;
    Buffer.add_int32_le tri (Int32.of_int (nvar m n));
    Buffer.add_int32_le tri (Int32.of_int (Hashtbl.find ids (nlow m n)));
    Buffer.add_int32_le tri (Int32.of_int (Hashtbl.find ids (nhigh m n)))
  in
  let visit root =
    if not (Hashtbl.mem ids root) then begin
      stack := [ root ];
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | n :: rest ->
          if Hashtbl.mem ids n then stack := rest
          else begin
            let l = nlow m n and h = nhigh m n in
            let lk = Hashtbl.mem ids l and hk = Hashtbl.mem ids h in
            if lk && hk then begin
              stack := rest;
              emit n
            end
            else begin
              if not hk then stack := h :: !stack;
              if not lk then stack := l :: !stack
            end
          end
      done
    end
  in
  List.iter visit roots;
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int m.nvars);
  Buffer.add_int32_le buf (Int32.of_int (!next - 2));
  Buffer.add_int32_le buf (Int32.of_int (List.length roots));
  Buffer.add_buffer buf tri;
  List.iter (fun r -> Buffer.add_int32_le buf (Int32.of_int (Hashtbl.find ids r))) roots;
  let body = Buffer.contents buf in
  Buffer.add_int32_le buf (Int32.of_int (Crc32.string body));
  Buffer.contents buf

(* Cross-manager transfer without the byte-string detour: re-intern the
   reachable DAG into [dst], memoised per source node.  Recursion depth
   is bounded by the variable count (vars strictly increase downward). *)
let copy src dst roots =
  extend_vars dst src.nvars;
  (* Handles are slot indices below [num_slots], so the memo is a flat
     array: a whole-store transfer visits every node once, and hashing
     each one cost more than building its copy. *)
  let memo = Array.make (max 2 src.num_slots) (-1) in
  memo.(bdd_false) <- bdd_false;
  memo.(bdd_true) <- bdd_true;
  let rec go n =
    let r = memo.(n) in
    if r >= 0 then r
    else begin
      let l = go (nlow src n) and h = go (nhigh src n) in
      let r = mk dst (nvar src n) l h in
      memo.(n) <- r;
      r
    end
  in
  List.map go roots

let deserialize ?(source = "<bdd>") m data =
  let fail off fmt = Solver_error.raise_bad_input ~file:source ~line:0 ("byte %d: " ^^ fmt) off in
  let len = String.length data in
  let u32 off =
    if off + 4 > len then fail off "truncated (need 4 bytes, have %d)" (len - off);
    let v = Int32.to_int (String.get_int32_le data off) in
    if v < 0 then fail off "negative field %d" v;
    v
  in
  if len < header_bytes + trailer_bytes then fail 0 "truncated header (%d bytes)" len;
  if String.sub data 0 (String.length magic) <> magic then fail 0 "bad magic (not a %s dump)" (String.trim magic);
  let base = String.length magic in
  let nvars = u32 base in
  let nnodes = u32 (base + 4) in
  let nroots = u32 (base + 8) in
  let expect = header_bytes + (12 * nnodes) + (4 * nroots) + trailer_bytes in
  if len <> expect then fail len "size mismatch: %d nodes + %d roots need %d bytes, file has %d" nnodes nroots expect len;
  (* Verify the trailing CRC before trusting a single triple: bit rot
     anywhere in the dump is one uniform, early error. *)
  let stored_crc = Int32.to_int (String.get_int32_le data (len - trailer_bytes)) land 0xFFFFFFFF in
  let actual_crc = Crc32.update 0 data ~pos:0 ~len:(len - trailer_bytes) in
  if stored_crc <> actual_crc then
    fail (len - trailer_bytes) "checksum mismatch: dump says crc32 %s, content is %s (corrupt or torn write)"
      (Crc32.to_hex stored_crc) (Crc32.to_hex actual_crc);
  if nvars > m.nvars then extend_vars m nvars;
  let handles = Array.make (nnodes + 2) bdd_false in
  handles.(1) <- bdd_true;
  for j = 0 to nnodes - 1 do
    let off = header_bytes + (12 * j) in
    let v = u32 off and l = u32 (off + 4) and h = u32 (off + 8) in
    if v >= nvars then fail off "variable %d out of range [0, %d)" v nvars;
    if l >= j + 2 then fail (off + 4) "low edge %d is not topologically earlier than node %d" l (j + 2);
    if h >= j + 2 then fail (off + 8) "high edge %d is not topologically earlier than node %d" h (j + 2);
    if l = h then fail off "node %d is not reduced (low = high = %d)" (j + 2) l;
    (* Children are strictly below their parent in the variable order in
       any well-formed dump; [mk] does not re-check, so verify here. *)
    let lvl x = if x < 2 then terminal_var else nvar m handles.(x) in
    if lvl l <= v || lvl h <= v then fail off "node %d breaks the variable order" (j + 2);
    handles.(j + 2) <- mk m v handles.(l) handles.(h)
  done;
  List.init nroots (fun i ->
      let off = header_bytes + (12 * nnodes) + (4 * i) in
      let r = u32 off in
      if r >= nnodes + 2 then fail off "root id %d out of range [0, %d)" r (nnodes + 2);
      handles.(r))

(* --- Garbage collection --- *)

let add_root m r = m.roots <- r :: m.roots
let remove_root m r = m.roots <- List.filter (fun r' -> r' != r) m.roots
let add_root_list m l = m.root_lists <- l :: m.root_lists
let remove_root_list m l = m.root_lists <- List.filter (fun l' -> l' != l) m.root_lists
let add_root_fn m f = m.root_fns <- f :: m.root_fns
let on_remap m h = m.remap_hooks <- h :: m.remap_hooks

(* Mark every node reachable from the registered roots into [m.marks]. *)
let mark_roots m =
  if Bytes.length m.marks < m.num_slots then m.marks <- Bytes.make (A.capacity m.arena) '\000'
  else Bytes.fill m.marks 0 m.num_slots '\000';
  let top = ref 0 in
  let push n =
    if n >= 2 && Bytes.get m.marks n = '\000' then begin
      Bytes.set m.marks n '\001';
      top := stack_push m !top n
    end
  in
  let mark n =
    push n;
    while !top > 0 do
      decr top;
      let x = m.stack.(!top) in
      let pg = node_page m x in
      let i = (x land m.pmask) * 4 in
      push pg.(i + 1);
      push pg.(i + 2)
    done
  in
  List.iter (fun r -> mark !r) m.roots;
  List.iter (fun l -> List.iter mark !l) m.root_lists;
  List.iter (fun f -> List.iter mark (f ())) m.root_fns

(* Rebuild the op cache through the relocation map so warm entries
   survive compaction: an entry is kept when its result and operands
   are all live, with handles rewritten to their new numbers and the
   entry re-inserted at the slot the rewritten key hashes to
   (collisions are last-write-wins, same as normal stores).  Entries
   naming a dead handle are dropped: that number may be reused by a
   later [mk], after which the entry would describe another function.
   [op_replace]'s b slot is a map id, never a handle (map ids are never
   reused): it is neither liveness-checked nor rewritten. *)
let rebuild_cache_remapped m reloc =
  let live x = x < 2 || Bytes.get m.marks x = '\001' in
  let remap x = if x < 2 then x else reloc.(x) in
  let cache = m.cache in
  let fresh =
    if Array.length m.cache_scratch = Array.length cache then begin
      Array.fill m.cache_scratch 0 (Array.length cache) (-1);
      m.cache_scratch
    end
    else Array.make (Array.length cache) (-1)
  in
  let n = Array.length cache / 5 in
  for slot = 0 to n - 1 do
    let i = slot * 5 in
    let op = cache.(i) in
    if op >= 0 then begin
      let a = cache.(i + 1) and b = cache.(i + 2) and c = cache.(i + 3) and r = cache.(i + 4) in
      if live r && live a && (op = op_replace || (live b && live c)) then begin
        let a' = remap a and r' = remap r in
        let b' = if op = op_replace then b else remap b in
        let c' = if op = op_replace then c else remap c in
        let j = (hash3 (op + (a' * 31)) b' c' land m.cache_mask) * 5 in
        fresh.(j) <- op;
        fresh.(j + 1) <- a';
        fresh.(j + 2) <- b';
        fresh.(j + 3) <- c';
        fresh.(j + 4) <- r'
      end
    end
  done;
  m.cache_scratch <- cache;
  m.cache <- fresh

(* Collection: renumber the survivors so that nodes of the
   same variable level sit in consecutive slots — and therefore in the
   same (or adjacent) pages.  The recursive kernels proceed level by
   level, so clustering turns their page access pattern from uniform
   scatter over the whole table into a sweep of a few pages per level:
   that is what makes a byte-capped buffer pool workable, and it is a
   plain locality win uncapped.

   Within a level survivors keep their relative (ascending) old order,
   so repeated compactions of an unchanged working set are stable.

   New numbering: terminals keep 0/1; level 0's survivors follow, then
   level 1's, etc.  [reloc.(old) = new] for every marked slot.  After
   the copy, every registered root ref/list is rewritten in place and
   the [on_remap] hooks run with the relocation function; allocation
   resumes as a bump at [num_slots].  Collection and freezing rewrite
   the node pages, which an overlay shares with every other overlay
   over the same snapshot, so both refuse an overlay. *)
let check_plain m what = if m.base > 0 then invalid_arg (what ^ ": not on an overlay")

let gc m =
  check_plain m "Bdd.gc";
  mark_roots m;
  let a = m.arena in
  let spp = a.A.slots_per_page in
  (* Per-level survivor counts. *)
  let counts = Array.make (max m.nvars 1) 0 in
  let nlive = ref 0 in
  for p = 0 to a.A.num_pages - 1 do
    let base = p * spp in
    let lo = if p = 0 then 2 else 0 in
    let hi = min spp (m.num_slots - base) in
    if hi > lo then begin
      let pg = A.fault_in a p in
      for s = lo to hi - 1 do
        if Bytes.get m.marks (base + s) = '\001' then begin
          counts.(pg.(s * 4)) <- counts.(pg.(s * 4)) + 1;
          incr nlive
        end
      done
    end
  done;
  let nlive = !nlive in
  (* Prefix sums: counts.(v) becomes the next destination id for level
     v, destinations starting at 2. *)
  let cursor = ref 2 in
  for v = 0 to Array.length counts - 1 do
    let c = counts.(v) in
    counts.(v) <- !cursor;
    cursor := !cursor + c
  done;
  (* Assign destinations (old-ascending within each level) and record
     the inverse: order.(new - 2) = old. *)
  (* Stale scratch entries are harmless: [reloc] is only ever read at
     marked slots (all freshly written below), [order] only below
     [nlive]. *)
  let reloc =
    if Array.length m.reloc_scratch >= m.num_slots then m.reloc_scratch
    else begin
      let a = Array.make (max 1024 (2 * m.num_slots)) 0 in
      m.reloc_scratch <- a;
      a
    end
  in
  reloc.(1) <- 1;
  let order =
    if Array.length m.order_scratch >= nlive then m.order_scratch
    else begin
      let a = Array.make (max 1024 (2 * nlive)) 0 in
      m.order_scratch <- a;
      a
    end
  in
  for p = 0 to a.A.num_pages - 1 do
    let base = p * spp in
    let lo = if p = 0 then 2 else 0 in
    let hi = min spp (m.num_slots - base) in
    if hi > lo then begin
      let pg = A.fault_in a p in
      for s = lo to hi - 1 do
        if Bytes.get m.marks (base + s) = '\001' then begin
          let v = pg.(s * 4) in
          let d = counts.(v) in
          counts.(v) <- d + 1;
          reloc.(base + s) <- d;
          order.(d - 2) <- base + s
        end
      done
    end
  done;
  (* Remap the op cache while the old numbering is still readable. *)
  rebuild_cache_remapped m reloc;
  (* Emit the survivors into fresh pages in destination order.  The
     fresh pages live outside the pool until [swap] installs them, so
     a capped arena transiently holds both copies; [swap] evicts back
     under the cap immediately after. *)
  let new_slots = nlive + 2 in
  let npages = (new_slots + spp - 1) / spp in
  let fresh = Array.init npages (fun _ -> Array.make a.A.ints_per_page (-1)) in
  fresh.(0).(0) <- terminal_var;
  fresh.(0).(1) <- 0;
  fresh.(0).(2) <- 0;
  fresh.(0).(4) <- terminal_var;
  fresh.(0).(5) <- 1;
  fresh.(0).(6) <- 1;
  for d = 0 to nlive - 1 do
    let old = order.(d) in
    let po = node_page m old in
    let oi = (old land m.pmask) * 4 in
    let l = po.(oi + 1) and h = po.(oi + 2) in
    let dst = d + 2 in
    let pd = fresh.(dst lsr m.pbits) in
    let di = (dst land m.pmask) * 4 in
    pd.(di) <- po.(oi);
    pd.(di + 1) <- (if l < 2 then l else reloc.(l));
    pd.(di + 2) <- (if h < 2 then h else reloc.(h))
  done;
  A.swap a fresh npages;
  A.set_tail a (npages - 1);
  m.num_slots <- new_slots;
  (* Shrink (or grow) the bucket array to the compacted capacity, then
     rebuild the chains over the new numbering. *)
  let cap = A.capacity a in
  let nb =
    let rec up c = if c >= cap || c >= max 1024 cap then c else up (c * 2) in
    up 1024
  in
  if Array.length m.buckets <> nb then m.buckets <- Array.make nb (-1);
  rehash m;
  (* Rewrite every registered retention point to the new numbering. *)
  let mapf x = if x < 2 then x else reloc.(x) in
  List.iter (fun r -> r := mapf !r) m.roots;
  List.iter (fun l -> l := List.map mapf !l) m.root_lists;
  List.iter (fun h -> h mapf) m.remap_hooks;
  m.gcs <- m.gcs + 1

(* --- Frozen snapshots and overlays -----------------------------------

   Multicore warm-query serving: [freeze] snapshots a manager's node
   table into an immutable value that any number of domains may read
   concurrently, and [overlay] gives each domain an ordinary manager
   over it, so queries run through the same kernels as the solver.

   The snapshot is the post-GC page set, copied page by page out of
   the buffer pool into plain arrays (spilled pages are faulted in to
   be copied, so a snapshot is always fully resident), plus a copy of
   the unique table.  The collection keeps every registered root
   valid: its renumbering rewrites every [add_root] ref,
   [add_root_list] list and [on_remap] hook, so handles read back from
   their rooted homes after [freeze] returns are valid snapshot
   handles.

   An overlay's arena starts with the snapshot's pages, shared and
   never written, so snapshot handles read as they did in the frozen
   manager.  Its own nodes start at [base], the first slot of the next
   page, with their own unique table and a fixed-size op cache.  Since
   snapshot nodes only point at snapshot nodes, [mk] consults the
   snapshot's table only for two snapshot children.  [reset] drops
   every own node by truncating to [base] and invalidates the cache
   entries that name one, which [cache_store] logged; entries over
   snapshot handles only stay warm across resets.  Its cost depends on
   the overlay's own table and cache, never on the snapshot's size.
   Overlays are uncapped, and [gc]/[freeze] refuse them, so
   nothing an overlay does writes state another domain reads. *)

type frozen = {
  fz_pages : int array array;
  fz_page_bits : int;
  fz_buckets : int array;
  fz_nvars : int;
  fz_live : int;
}

let freeze m =
  check_plain m "Bdd.freeze";
  (* Collect first so the snapshot holds only reachable nodes,
     level-clustered and densely numbered. *)
  gc m;
  let a = m.arena in
  let spp = a.A.slots_per_page in
  let npages = (m.num_slots + spp - 1) / spp in
  (* [fault_in] may evict an earlier page to make room, but the copy of
     that page is already taken and eviction never mutates the array. *)
  let pages = Array.init npages (fun p -> Array.copy (A.fault_in a p)) in
  {
    fz_pages = pages;
    fz_page_bits = a.A.page_bits;
    fz_buckets = Array.copy m.buckets;
    fz_nvars = m.nvars;
    fz_live = live_nodes m;
  }

let frozen_live_nodes fz = fz.fz_live

let frozen_bytes fz =
  let pages =
    Array.fold_left (fun acc p -> acc + Array.length p) 0 fz.fz_pages
  in
  (pages + Array.length fz.fz_buckets) * 8

let overlay fz =
  let arena = A.create ~page_bits:fz.fz_page_bits () in
  A.adopt arena fz.fz_pages;
  make_man ~arena ~base:(A.capacity arena) ~snap_buckets:fz.fz_buckets ~buckets:1024 ~cache_bits:14
    ~nvars:fz.fz_nvars

let reset m =
  if m.base = 0 then invalid_arg "Bdd.reset: not an overlay";
  let cache = m.cache and base = m.base in
  let drop slot =
    let i = slot * 5 in
    if cache.(i) >= 0 && (cache.(i + 4) >= base || cache.(i + 1) >= base || cache.(i + 2) >= base || cache.(i + 3) >= base)
    then cache.(i) <- -1
  in
  if m.cache_logged > Array.length m.cache_log then
    for slot = 0 to m.cache_mask do
      drop slot
    done
  else
    for k = 0 to m.cache_logged - 1 do
      drop m.cache_log.(k)
    done;
  m.cache_logged <- 0;
  if m.num_slots > base then begin
    Array.fill m.buckets 0 (Array.length m.buckets) (-1);
    m.num_slots <- base
  end
