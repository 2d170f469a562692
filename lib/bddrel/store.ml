(* On-disk results database: domains + variable layout + relation BDDs.

   The manifest is a small line-oriented text file; the BDD payload is
   one Bdd.serialize dump whose roots are the relations in manifest
   order.  Write protocol for crash safety:

   - every file goes through temp + fsync + rename + directory fsync
     (a write barrier: the rename only becomes the commit of that file
     once its content is durable, and the rename itself is durable
     once the directory is);
   - data files are written before the manifest, and an existing
     manifest is removed first (and the removal fsynced) when
     overwriting — the manifest's presence is the commit point of the
     whole store;
   - the manifest records a CRC-32 + size for every data file and a
     CRC-32 of itself (the [selfsum] line), so any corruption between
     save and load is reported as a structured checksum error instead
     of a deserializer crash or, worse, silently wrong answers.

   Every file-system mutation is announced through [Faults.fs_op]
   immediately before it happens, which lets the robustness suite
   enumerate the crash points of a save and simulate a kill at each
   one (see test/test_store.ml's crash matrix). *)

type t = {
  st_key : string;
  st_snapshot : int;
  st_config : (string * string) list;
  st_space : Space.t;
  st_domains : (string * Domain.t) list;
  st_rels : (string * Relation.t) list; (* manifest order *)
  st_layers : int; (* delta layers folded into this load *)
  st_certified : bool; (* the certification mark names this tip *)
}

(* v2: checksummed manifest + WLBDD02 checksummed BDD framing.
   v3: a [snapshot <n>] identity line — a per-directory save counter
   that lets followers (and their routers) tell two saves of the same
   content key apart and assert exactly which snapshot answered.

   Independent of the base format, a store may carry a chain of delta
   layers ([layer.<n>.*] files, format [whalelam-layer 1]): each layer
   is a self-committed append describing per-relation added/removed
   tuple sets against the state below it.  [load] folds the chain;
   [save] and [compact] squash it back to a single base. *)
let format_version = 3
let layer_format_version = 1

let subdir dir = Filename.concat dir "store"
let manifest_path dir = Filename.concat (subdir dir) "manifest"
let bdd_file = "relations.bdd"
let bdd_path dir = Filename.concat (subdir dir) bdd_file
let map_file dom_name = dom_name ^ ".map"
let map_path dir dom_name = Filename.concat (subdir dir) (map_file dom_name)

(* Delta-layer files live next to the base under numeric names; the
   layer manifest is each layer's single commit point, exactly as the
   base manifest is for the whole store. *)
let layer_manifest_file n = Printf.sprintf "layer.%d.manifest" n
let layer_manifest_path dir n = Filename.concat (subdir dir) (layer_manifest_file n)
let layer_bdd_file n = Printf.sprintf "layer.%d.bdd" n
let layer_map_file n dom_name = Printf.sprintf "layer.%d.%s.map" n dom_name

(* [layer.<n>.<rest>] → [Some n]; anything else → [None]. *)
let layer_file_index f =
  if String.length f > 6 && String.sub f 0 6 = "layer." then
    match String.index_from_opt f 6 '.' with
    | Some dot -> int_of_string_opt (String.sub f 6 (dot - 6))
    | None -> None
  else None

let bad ~path ~line fmt = Solver_error.raise_bad_input ~file:path ~line fmt

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

(* Directory fsync: makes a completed rename/remove durable.  Best
   effort — some filesystems refuse to fsync a directory fd; the
   in-file checksums still catch whatever such a crash leaves. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Atomic durable write: the destination either keeps its old content
   or gets the complete new content, never a prefix — and once the
   rename is visible, the content is already on disk (fsync before
   rename, directory fsync after).  The [Faults.fs_op] announcements
   split the path into its crash points; a simulated kill
   ([Faults.Crashed]) stops the protocol dead, leaving the temp file
   behind exactly as a real kill would. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  Faults.fs_op ("create " ^ tmp);
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let write_slice pos len =
    let b = Bytes.unsafe_of_string content in
    let rec go pos len =
      if len > 0 then begin
        let n = Unix.write fd b pos len in
        go (pos + n) (len - n)
      end
    in
    go pos len
  in
  (try
     let n = String.length content in
     let half = n / 2 in
     Faults.fs_op ("write " ^ tmp);
     write_slice 0 half;
     if half < n then Faults.fs_op ("write-rest " ^ tmp);
     write_slice half (n - half);
     Faults.fs_op ("fsync " ^ tmp);
     Unix.fsync fd;
     Unix.close fd
   with
   | Faults.Crashed _ as e ->
     (* Simulated process death: the kernel reclaims the descriptor
        and nothing else runs — the partial temp file stays. *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e
   | e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Faults.fs_op ("rename " ^ path);
  Sys.rename tmp path;
  Faults.fs_op ("fsync-dir " ^ Filename.dirname path);
  fsync_dir (Filename.dirname path)

let check_name what s =
  if s = "" || String.exists (fun c -> c = ' ' || c = ':' || c = '\n' || c = '\t' || c = '/') s then
    invalid_arg (Printf.sprintf "Store: %s name %S must be non-empty without spaces, colons or slashes" what s)

(* The snapshot counter's durable home: a one-line [serial] file next
   to the manifest, committed (atomically, before the old manifest is
   even touched) at the start of every save.  A save that crashes at
   any later point — including the torn window where the manifest has
   been removed but the new one is not yet committed — therefore never
   resets the counter: the next save reads the serial file and keeps
   counting.  The manifest scan below is only a fallback for stores
   written before the serial file existed. *)
let serial_path dir = Filename.concat (subdir dir) "serial"

(* The certification mark ([<key> <snapshot> <crc>], see store.mli):
   its own file, so [save] stays the only writer of the base manifest
   and [save_delta] of layer manifests.  Anything unreadable is no mark. *)
let mark_path dir = Filename.concat (subdir dir) "certified"

let render_mark key snapshot =
  let ident = Printf.sprintf "%s %d" key snapshot in
  Printf.sprintf "%s %s\n" ident (Crc32.to_hex (Crc32.string ident))

let read_mark dir =
  match In_channel.with_open_bin (mark_path dir) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match String.split_on_char ' ' text with
    | [ key; n; _ ] -> (
      match int_of_string_opt n with Some n when render_mark key n = text -> Some (key, n) | _ -> None)
    | _ -> None)

(* Best-effort removal of every delta-layer file.  Called after the
   commit point of a full [save] (which orphans any chain the
   directory carried) and by [compact]: correctness never depends on
   it, because a layer whose [base-snapshot] does not match the
   current base is ignored by the chain walk — this only reclaims the
   disk.  Layer manifests go first so a crash mid-cleanup cannot leave
   a committed layer manifest pointing at removed data. *)
let remove_layer_files dir =
  match Sys.readdir (subdir dir) with
  | exception Sys_error _ -> ()
  | entries ->
    let files = Array.to_list entries |> List.filter (fun f -> layer_file_index f <> None) in
    if files <> [] then begin
      let manifests, rest = List.partition (fun f -> Filename.check_suffix f ".manifest") files in
      List.iter
        (fun f ->
          let path = Filename.concat (subdir dir) f in
          Faults.fs_op ("remove " ^ path);
          try Sys.remove path with Sys_error _ -> ())
        (manifests @ rest);
      Faults.fs_op ("fsync-dir " ^ subdir dir);
      fsync_dir (subdir dir)
    end

let read_serial path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | l -> (match int_of_string_opt (String.trim l) with Some n when n >= 0 -> Some n | _ -> None)
        | exception End_of_file -> None)

(* The previous save's snapshot counter, scanned with a plain line
   match (no full parse: the old manifest may be torn or corrupt, and
   a save must still go through — it starts a fresh history then). *)
let scan_snapshot path =
  if not (Sys.file_exists path) then None
  else
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let found = ref None in
          (try
             while !found = None do
               match String.split_on_char ' ' (input_line ic) with
               | [ "snapshot"; n ] -> found := int_of_string_opt n
               | _ -> ()
             done
           with End_of_file -> ());
          !found)
    with
    | Some n when n >= 0 -> Some n
    | Some _ | None -> None
    | exception Sys_error _ -> None

(* --- Manifests ---

   A base manifest ([whalelam-store 3]) and a layer manifest
   ([whalelam-layer 1]) share one line grammar: the header, then
   [key], [snapshot], [config], [nvars], [domain] and [checksum]
   lines, then a [selfsum] CRC-32 of every line above it and an [end]
   trailer.  Only a base carries [block] and [relation] lines, and only
   a layer [layer], [base-snapshot], [prev-snapshot] and [delta] lines;
   a line under the other header is malformed, except an old base's
   [certified] line, which is ignored.  A manifest is written (by
   {!render}) in exactly the order below. *)

type kind = Base | Layer

type manifest = {
  m_kind : kind;
  m_path : string;
  m_key : string; (* for a layer: content key of the chain up to and including it *)
  m_snapshot : int;
  m_config : (string * string) list;
  m_nvars : int;
  m_domains : (string * int * bool) list; (* name, size (a layer's: final), carries a map *)
  m_checksums : (string * int * int) list; (* file, size, crc32 *)
  m_blocks : (string * int * int array) list; (* base: dom, instance, bits *)
  m_relations : (string * (string * string * int) list) list; (* base: rel, attrs (name, dom, instance) *)
  m_index : int; (* layer: its position in the chain, from 1 *)
  m_base_snapshot : int; (* layer: the base save it extends *)
  m_prev_snapshot : int; (* layer: the element directly below (base or layer n-1) *)
  m_deltas : string list; (* layer: relation names; dump roots are (added, removed) pairs in this order *)
}

let blank kind path =
  {
    m_kind = kind;
    m_path = path;
    m_key = "";
    m_snapshot = 0;
    m_config = [];
    m_nvars = 0;
    m_domains = [];
    m_checksums = [];
    m_blocks = [];
    m_relations = [];
    m_index = 0;
    m_base_snapshot = 0;
    m_prev_snapshot = 0;
    m_deltas = [];
  }

let header = function
  | Base -> Printf.sprintf "whalelam-store %d" format_version
  | Layer -> Printf.sprintf "whalelam-layer %d" layer_format_version

let render m =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "%s" (header m.m_kind);
  if m.m_kind = Layer then line "layer %d" m.m_index;
  line "key %s" m.m_key;
  line "snapshot %d" m.m_snapshot;
  if m.m_kind = Layer then begin
    line "base-snapshot %d" m.m_base_snapshot;
    line "prev-snapshot %d" m.m_prev_snapshot
  end;
  List.iter (fun (k, v) -> line "config %s %s" k v) m.m_config;
  line "nvars %d" m.m_nvars;
  List.iter (fun (d, size, mapped) -> line "domain %s %d %d" d size (Bool.to_int mapped)) m.m_domains;
  List.iter
    (fun (d, inst, bits) ->
      line "block %s %d %s" d inst (String.concat " " (List.map string_of_int (Array.to_list bits))))
    m.m_blocks;
  List.iter
    (fun (r, attrs) ->
      line "relation %s %s" r (String.concat " " (List.map (fun (a, d, i) -> Printf.sprintf "%s:%s:%d" a d i) attrs)))
    m.m_relations;
  List.iter (line "delta %s") m.m_deltas;
  List.iter (fun (file, size, crc) -> line "checksum %s %d %s" file size (Crc32.to_hex crc)) m.m_checksums;
  (* Self-checksum over every preceding byte: a flipped bit anywhere
     above is caught before any field is believed. *)
  line "selfsum %s" (Crc32.to_hex (Crc32.string (Buffer.contents b)));
  line "end";
  Buffer.contents b

let read_lines path =
  let ic = try open_in path with Sys_error msg -> bad ~path ~line:0 "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let split_ws s = String.split_on_char ' ' s |> List.filter (fun f -> f <> "")

(* The manifest self-checksum: the second-to-last line must be
   [selfsum <crc>] where <crc> is the CRC-32 of every line before it
   (each with its '\n' back).  Verified before any field is
   interpreted, so a corrupted manifest is one uniform structured
   error rather than whichever field-level symptom the flip causes. *)
let verify_selfsum path lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  if n < 3 then bad ~path ~line:n "manifest too short (%d lines)" n;
  match split_ws arr.(n - 2) with
  | [ "selfsum"; hex ] -> (
    match Crc32.of_hex hex with
    | None -> bad ~path ~line:(n - 1) "malformed selfsum value %s" hex
    | Some recorded ->
      let b = Buffer.create 512 in
      for i = 0 to n - 3 do
        Buffer.add_string b arr.(i);
        Buffer.add_char b '\n'
      done;
      let actual = Crc32.string (Buffer.contents b) in
      if actual <> recorded then
        bad ~path ~line:(n - 1)
          "manifest checksum mismatch: selfsum says crc32 %s, content is %s (corrupt manifest)"
          (Crc32.to_hex recorded) (Crc32.to_hex actual))
  | _ -> bad ~path ~line:(n - 1) "missing selfsum line before the end trailer (truncated manifest)"

let parse_manifest kind path =
  let lines = read_lines path in
  let base = kind = Base in
  let what = if base then "manifest" else "layer manifest" in
  (match lines with
  | first :: _ when first = header kind -> ()
  | first :: _ -> bad ~path ~line:1 "unsupported %s format: %s" (if base then "store" else "layer") first
  | [] -> bad ~path ~line:1 "empty %s" what);
  (match List.rev lines with
  | "end" :: _ -> ()
  | _ -> bad ~path ~line:(List.length lines) "missing end trailer (truncated %s)" what);
  verify_selfsum path lines;
  let key = ref None and snapshot = ref None and nvars = ref None in
  let index = ref None and base_snapshot = ref None and prev_snapshot = ref None in
  let config = ref [] and domains = ref [] and checksums = ref [] in
  let blocks = ref [] and relations = ref [] and deltas = ref [] in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      let nat what s =
        match int_of_string_opt s with
        | Some v when v >= 0 -> v
        | Some _ | None -> bad ~path ~line:line_no "%s: not a non-negative integer: %s" what s
      in
      if i > 0 && line <> "end" then
        match split_ws line with
        | [ "key"; k ] -> key := Some k
        | [ "snapshot"; n ] -> snapshot := Some (nat "snapshot" n)
        | "config" :: k :: _ ->
          (* The value is everything after the key, spaces included. *)
          let skip = String.length "config " + String.length k + 1 in
          let v = if String.length line >= skip then String.sub line skip (String.length line - skip) else "" in
          config := (k, v) :: !config
        | [ "nvars"; n ] -> nvars := Some (nat "nvars" n)
        | [ "domain"; name; size; mapped ] -> domains := (name, nat "domain size" size, mapped = "1") :: !domains
        | [ "checksum"; file; size; crc ] -> (
          match Crc32.of_hex crc with
          | Some c -> checksums := (file, nat "checksum size" size, c) :: !checksums
          | None -> bad ~path ~line:line_no "malformed checksum value %s" crc)
        | [ "selfsum"; _ ] -> () (* verified up front by [verify_selfsum] *)
        | "block" :: dname :: inst :: bits when base ->
          blocks := (dname, nat "instance" inst, Array.of_list (List.map (nat "bit") bits)) :: !blocks
        | "relation" :: rname :: attrs when base ->
          let parse_attr spec =
            match String.split_on_char ':' spec with
            | [ a; d; inst ] -> (a, d, nat "attr instance" inst)
            | _ -> bad ~path ~line:line_no "malformed attribute spec %s" spec
          in
          relations := (rname, List.map parse_attr attrs) :: !relations
        | [ "certified"; _; _ ] when base -> () (* a mark from before [mark_path] *)
        | [ "layer"; n ] when not base -> index := Some (nat "layer" n)
        | [ "base-snapshot"; n ] when not base -> base_snapshot := Some (nat "base-snapshot" n)
        | [ "prev-snapshot"; n ] when not base -> prev_snapshot := Some (nat "prev-snapshot" n)
        | [ "delta"; rname ] when not base -> deltas := rname :: !deltas
        | _ -> bad ~path ~line:line_no "unrecognized %s line: %s" what line)
    lines;
  let require name r =
    match !r with
    | Some v -> v
    | None -> bad ~path ~line:0 "%s is missing its %s line" what name
  in
  let link name r = if base then 0 else require name r in
  let m_index = link "layer" index in
  let m_key = require "key" key in
  let m_snapshot = require "snapshot" snapshot in
  let m_base_snapshot = link "base-snapshot" base_snapshot in
  let m_prev_snapshot = link "prev-snapshot" prev_snapshot in
  let m_nvars = require "nvars" nvars in
  {
    m_kind = kind;
    m_path = path;
    m_key;
    m_snapshot;
    m_config = List.rev !config;
    m_nvars;
    m_domains = List.rev !domains;
    m_checksums = List.rev !checksums;
    m_blocks = List.rev !blocks;
    m_relations = List.rev !relations;
    m_index;
    m_base_snapshot;
    m_prev_snapshot;
    m_deltas = List.rev !deltas;
  }

(* --- Writing: the steps [save] and [save_delta] share --- *)

let check_config fn config =
  List.iter
    (fun (k, v) ->
      check_name "config" k;
      if String.contains v '\n' then invalid_arg (fn ^ ": config value contains newline"))
    config

(* A domain's element-name map file, one name per line ([None] when
   the domain has no names).  Rendered up front, like every data
   file, so the checksum a manifest records is over the exact bytes
   written. *)
let render_map d =
  Option.map
    (fun names ->
      let b = Buffer.create 1024 in
      for i = 0 to Domain.size d - 1 do
        Buffer.add_string b names.(i);
        Buffer.add_char b '\n'
      done;
      Buffer.contents b)
    (Domain.element_names d)

let checksum (file, content) = (file, String.length content, Crc32.string content)

(* Monotonic per-directory save counter: the follower swap protocol
   distinguishes "same key, re-saved" (snapshot bumps) from "nothing
   changed" (identical key and snapshot).  The next value is one past
   the largest of [floor], the serial file and the manifest's own line
   (for stores predating the serial file), and it is committed durably
   to the serial file before anything else is written — so a save torn
   at any later crash point cannot make the counter go backwards. *)
let alloc_snapshot dir ~floor =
  let prev =
    List.fold_left
      (fun acc o -> match o with Some n -> max acc n | None -> acc)
      floor
      [ read_serial (serial_path dir); scan_snapshot (manifest_path dir) ]
  in
  write_atomic (serial_path dir) (string_of_int (prev + 1) ^ "\n");
  prev + 1

let save_snapshot ~dir ~key ~config ~space ~relations =
  List.iter
    (fun r ->
      check_name "relation" (Relation.name r);
      if Relation.space r != space then invalid_arg "Store.save: relation from a different space")
    relations;
  let names = List.map Relation.name relations in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Store.save: duplicate relation names";
  check_config "Store.save" config;
  let doms = Space.domains space in
  List.iter (fun d -> check_name "domain" (Domain.name d)) doms;
  let maps = List.filter_map (fun d -> Option.map (fun m -> (Domain.name d, m)) (render_map d)) doms in
  let dump = Bdd.serialize (Space.man space) (List.map Relation.bdd relations) in
  let mpath = manifest_path dir in
  mkdir_p (subdir dir);
  let snapshot = alloc_snapshot dir ~floor:0 in
  let manifest =
    render
      {
        (blank Base mpath) with
        m_key = key;
        m_snapshot = snapshot;
        m_config = config;
        m_nvars = Space.num_vars space;
        m_domains = List.map (fun d -> (Domain.name d, Domain.size d, Domain.element_names d <> None)) doms;
        m_checksums = List.map checksum ((bdd_file, dump) :: List.map (fun (dn, m) -> (map_file dn, m)) maps);
        m_blocks = Space.layout space;
        m_relations =
          List.map
            (fun r ->
              ( Relation.name r,
                List.map
                  (fun (a : Relation.attr) ->
                    (a.Relation.attr_name, Domain.name a.Relation.block.Space.dom, a.Relation.block.Space.instance))
                  (Relation.attrs r) ))
            relations;
      }
  in
  (* Invalidate any previous store before touching its data files, and
     make the invalidation durable: a crash after this point must read
     as "no store", never as the old manifest over new data files. *)
  if Sys.file_exists mpath then begin
    Faults.fs_op ("remove " ^ mpath);
    (try Sys.remove mpath with Sys_error _ -> ());
    Faults.fs_op ("fsync-dir " ^ subdir dir);
    fsync_dir (subdir dir)
  end;
  List.iter (fun (dn, content) -> write_atomic (map_path dir dn) content) maps;
  write_atomic (bdd_path dir) dump;
  (* Manifest written last = the commit point of the whole store. *)
  write_atomic mpath manifest;
  (* The new base orphans any delta chain the directory carried (its
     layers name the previous base's snapshot); reclaim the files. *)
  remove_layer_files dir;
  snapshot

let save ~dir ~key ~config ~space ~relations = ignore (save_snapshot ~dir ~key ~config ~space ~relations)

let exists ~dir = Sys.file_exists (manifest_path dir)

(* --- The chain: one reader for every caller --- *)

type chain = { c_base : manifest; c_layers : manifest list (* bottom-up *) }

(* Walk the committed chain above a base manifest.  The walk stops
   cleanly at the first missing layer manifest (a torn [save_delta]
   never commits one, so its debris is invisible) and at the first
   {e orphan} — a layer whose [base-snapshot] is not the current
   base's, i.e. a leftover from before a [compact] or full [save]
   whose cleanup did not finish.  A layer that is committed but does
   not parse, misnumbers itself, or breaks the prev-snapshot link is
   {e corruption}: the walk reports it instead of silently serving a
   shorter chain. *)
let read_chain dir (m : manifest) =
  let rec go n prev acc =
    let path = layer_manifest_path dir n in
    if not (Sys.file_exists path) then (List.rev acc, None)
    else
      match parse_manifest Layer path with
      | exception Solver_error.Error e -> (List.rev acc, Some (n, Solver_error.to_string e))
      | l ->
        if l.m_base_snapshot <> m.m_snapshot then (List.rev acc, None) (* orphan: ignore *)
        else if l.m_index <> n then
          (List.rev acc, Some (n, Printf.sprintf "%s: layer line says %d, file name says %d" path l.m_index n))
        else if l.m_prev_snapshot <> prev then
          ( List.rev acc,
            Some
              ( n,
                Printf.sprintf "%s: prev-snapshot %d does not match the element below (snapshot %d)" path
                  l.m_prev_snapshot prev ) )
        else go (n + 1) l.m_snapshot (l :: acc)
  in
  go 1 m.m_snapshot []

(* The committed chain at [dir]: a missing store, an unparsable base
   manifest or a corrupt committed layer raises [Bad_input] ([broken]
   prefixes the last). *)
let open_chain ~broken dir =
  let mpath = manifest_path dir in
  if not (Sys.file_exists mpath) then bad ~path:mpath ~line:0 "no store at %s" dir;
  let base = parse_manifest Base mpath in
  match read_chain dir base with
  | layers, None -> { c_base = base; c_layers = layers }
  | _, Some (n, msg) -> bad ~path:(layer_manifest_path dir n) ~line:0 "%s: %s" broken msg

(* The chain tip — the last committed layer, or the base itself — whose
   key, snapshot and config describe the whole chain. *)
let tip c = match List.rev c.c_layers with [] -> c.c_base | l :: _ -> l

(* Where domain [name]'s element names live: the topmost layer that
   carries a replacement map (an edit grew or renamed the domain), else
   the base.  Returns the vouching manifest and the map's file name. *)
let map_source c name =
  match
    List.find_opt (fun l -> List.exists (fun (n, _, carries) -> n = name && carries) l.m_domains) (List.rev c.c_layers)
  with
  | Some l -> (l, layer_map_file l.m_index name)
  | None -> (c.c_base, map_file name)

type tip = { key : string; snapshot : int; layers : int; certified : bool }

let read_tip ~dir =
  match open_chain ~broken:"broken delta chain" dir with
  | c ->
    let m = tip c in
    Some
      {
        key = m.m_key;
        snapshot = m.m_snapshot;
        layers = List.length c.c_layers;
        certified = read_mark dir = Some (m.m_key, m.m_snapshot);
      }
  | exception Solver_error.Error _ -> None

let read_layers ~dir = Option.map (fun t -> t.layers) (read_tip ~dir)

(* Stat triples (inode, mtime, size) of the base manifest, the mark
   file (zeros when there is none) and every consecutive layer manifest
   on disk: the cheap has-anything-changed probe a follower compares
   between polls.  No parsing, no checksums — a changed list only means
   "look closer".  The walk does not validate chain links, so orphaned
   tails appear here too; that is fine, the slow path sorts them out. *)
let tip_stat ~dir =
  let stat path =
    match Unix.stat path with
    | st -> Some (st.Unix.st_ino, st.Unix.st_mtime, st.Unix.st_size)
    | exception Unix.Unix_error _ -> None
  in
  match stat (manifest_path dir) with
  | None -> []
  | Some base ->
    let rec go n acc =
      match stat (layer_manifest_path dir n) with
      | None -> List.rev acc
      | Some s -> go (n + 1) (s :: acc)
    in
    go 1 [ Option.value (stat (mark_path dir)) ~default:(0, 0.0, 0); base ]

(* --- Loading --- *)

let read_file path =
  let ic = try open_in_bin path with Sys_error msg -> bad ~path ~line:0 "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Read one data file and verify it against the size and CRC-32 its
   manifest records, before a single byte of it is interpreted. *)
let verified_read dir (file, size, crc) =
  let path = Filename.concat (subdir dir) file in
  let data = read_file path in
  if String.length data <> size then
    bad ~path ~line:0 "size mismatch: manifest says %d bytes, file has %d (corrupt or torn write)" size
      (String.length data);
  let actual = Crc32.string data in
  if actual <> crc then
    bad ~path ~line:0 "checksum mismatch: manifest says crc32 %s, content is %s (corrupt store)" (Crc32.to_hex crc)
      (Crc32.to_hex actual);
  data

let lines_of_string s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest (* drop the final newline's empty split *)
  | _ -> String.split_on_char '\n' s

let load_with ?mem_cap_bytes ~dir () =
  let c = open_chain ~broken:"broken delta chain" dir in
  let base = c.c_base and top = tip c in
  (* Every file any manifest of the chain checksums — superseded maps
     included — is read once and verified here, before any of it is
     interpreted: a load vouches for exactly the bytes [verify]
     checks. *)
  let files = Hashtbl.create 16 in
  List.iter
    (fun m -> List.iter (fun ((file, _, _) as ck) -> Hashtbl.replace files file (verified_read dir ck)) m.m_checksums)
    (base :: c.c_layers);
  let data m file =
    match Hashtbl.find_opt files file with
    | Some d -> d
    | None -> bad ~path:m.m_path ~line:0 "no checksum recorded for %s" file
  in
  (* Domains are created at their {e final} sizes (the tip's domain
     lines), with each mapped domain's names from its {!map_source}. *)
  let final_domains =
    List.map
      (fun (name, _, mapped) ->
        match List.find_opt (fun (n, _, _) -> n = name) top.m_domains with
        | Some (_, final_size, _) -> (name, final_size, mapped)
        | None -> bad ~path:top.m_path ~line:0 "layer %d is missing domain %s" top.m_index name)
      base.m_domains
  in
  (* A capped load spills under the store's own directory (the scratch
     file is lazily created, not in the manifest, and ignored by
     [verify]/[load] — debris at worst, removed on [dispose]).  The
     name embeds our pid so the sweep below — run on every load — can
     reclaim scratch files that earlier, since-killed processes never
     disposed, without ever touching a live concurrent loader's. *)
  ignore (Bdd.sweep_stale_spills ~dir:(subdir dir) ());
  let spill = Filename.concat (subdir dir) (Printf.sprintf "arena.%d.spill" (Unix.getpid ())) in
  let space = Space.create ?mem_cap_bytes ~spill_path:spill () in
  let domains =
    List.map
      (fun (name, size, mapped) ->
        let element_names =
          if not mapped then None
          else begin
            let m, file = map_source c name in
            let names = Array.of_list (lines_of_string (data m file)) in
            if Array.length names < size then
              bad
                ~path:(Filename.concat (subdir dir) file)
                ~line:(Array.length names) "map has %d entries, domain %s needs %d" (Array.length names) name size;
            Some names
          end
        in
        (name, Domain.make ?element_names ~name ~size ()))
      final_domains
  in
  let find_domain ~line name =
    match List.assoc_opt name domains with
    | Some d -> d
    | None -> bad ~path:base.m_path ~line "unknown domain %s" name
  in
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (dname, instance, bits) ->
      let d = find_domain ~line:0 dname in
      let b =
        try Space.restore_block space d ~instance ~bits
        with Invalid_argument msg -> bad ~path:base.m_path ~line:0 "%s" msg
      in
      Hashtbl.replace blocks (dname, instance) b)
    base.m_blocks;
  if Space.num_vars space > base.m_nvars then
    bad ~path:base.m_path ~line:0 "blocks use %d variables but nvars says %d" (Space.num_vars space) base.m_nvars;
  Bdd.extend_vars (Space.man space) (List.fold_left (fun acc l -> max acc l.m_nvars) base.m_nvars c.c_layers);
  let rels =
    List.map
      (fun (rname, attr_specs) ->
        let attrs =
          List.map
            (fun (aname, dname, instance) ->
              match Hashtbl.find_opt blocks (dname, instance) with
              | Some b -> { Relation.attr_name = aname; block = b }
              | None -> bad ~path:base.m_path ~line:0 "relation %s: no block %s#%d" rname dname instance)
            attr_specs
        in
        (rname, Relation.make space ~name:rname attrs))
      base.m_relations
  in
  let bpath = bdd_path dir in
  let roots = Bdd.deserialize ~source:bpath (Space.man space) (data base bdd_file) in
  if List.length roots <> List.length rels then
    bad ~path:bpath ~line:0 "dump has %d roots, manifest lists %d relations" (List.length roots)
      (List.length rels);
  List.iter2 (fun (_, r) root -> Relation.set_bdd r root) rels roots;
  (* Fold each layer over the state below it:
     rel := (rel \ removed) ∪ added, per delta line. *)
  let man = Space.man space in
  List.iter
    (fun l ->
      let lpath = Filename.concat (subdir dir) (layer_bdd_file l.m_index) in
      let roots = Bdd.deserialize ~source:lpath man (data l (layer_bdd_file l.m_index)) in
      if List.length roots <> 2 * List.length l.m_deltas then
        bad ~path:lpath ~line:0 "layer dump has %d roots, manifest lists %d delta relations" (List.length roots)
          (List.length l.m_deltas);
      let rec fold names roots =
        match (names, roots) with
        | [], [] -> ()
        | name :: names, added :: removed :: roots ->
          (match List.assoc_opt name rels with
          | None -> bad ~path:l.m_path ~line:0 "layer %d: delta for unknown relation %s" l.m_index name
          | Some r -> Relation.set_bdd r (Bdd.mk_or man (Bdd.mk_diff man (Relation.bdd r) removed) added));
          fold names roots
        | _ -> bad ~path:lpath ~line:0 "layer %d: root/delta count mismatch" l.m_index
      in
      fold l.m_deltas roots)
    c.c_layers;
  {
    st_key = top.m_key;
    st_snapshot = top.m_snapshot;
    st_config = top.m_config;
    st_space = space;
    st_domains = domains;
    st_rels = rels;
    st_layers = List.length c.c_layers;
    st_certified = read_mark dir = Some (top.m_key, top.m_snapshot);
  }

let load ~dir = load_with ~dir ()

(* --- Delta layers: append and squash --- *)

(* Append one delta layer to the chain at [dir].  The layer is
   committed exactly like a base save: serial first (so the snapshot
   counter survives any tear), data files next, the layer manifest
   last — its rename is the commit point, and a crash anywhere earlier
   leaves the previous chain tip serving unchanged. *)
let save_delta_snapshot ~dir ~key ~config ~space ~deltas =
  if not (exists ~dir) then invalid_arg (Printf.sprintf "Store.save_delta: no base store at %s" dir);
  let c = open_chain ~broken:"cannot append to a broken delta chain" dir in
  let base = c.c_base in
  (* The layer's BDDs only mean anything under the base's variable
     layout; refuse to append across a layout change. *)
  if Space.layout space <> List.sort compare base.m_blocks then
    invalid_arg "Store.save_delta: variable layout differs from the base store (cold save required)";
  List.iter
    (fun (name, _, _) ->
      check_name "relation" name;
      if not (List.mem_assoc name base.m_relations) then
        invalid_arg (Printf.sprintf "Store.save_delta: relation %s is not in the base store" name))
    deltas;
  check_config "Store.save_delta" config;
  let n = List.length c.c_layers + 1 in
  (* Element-name maps: a layer carries a replacement map for a domain
     only when the rendered content differs from what the chain below
     already provides (detected by CRC against its {!map_source}'s
     recorded checksum) — growth or renames write a full new map,
     untouched domains write nothing. *)
  let current_map_crc name =
    let m, file = map_source c name in
    List.find_map (fun (f, _, crc) -> if f = file then Some crc else None) m.m_checksums
  in
  let doms = Space.domains space in
  let maps =
    List.filter_map
      (fun d ->
        match render_map d with
        | Some content when current_map_crc (Domain.name d) <> Some (Crc32.string content) ->
          Some (Domain.name d, content)
        | Some _ | None -> None)
      doms
  in
  let dump = Bdd.serialize (Space.man space) (List.concat_map (fun (_, a, r) -> [ a; r ]) deltas) in
  let prev_snapshot = (tip c).m_snapshot in
  let snapshot = alloc_snapshot dir ~floor:prev_snapshot in
  let manifest =
    render
      {
        (blank Layer (layer_manifest_path dir n)) with
        m_index = n;
        m_key = key;
        m_snapshot = snapshot;
        m_base_snapshot = base.m_snapshot;
        m_prev_snapshot = prev_snapshot;
        m_config = config;
        m_nvars = Space.num_vars space;
        m_domains = List.map (fun d -> (Domain.name d, Domain.size d, List.mem_assoc (Domain.name d) maps)) doms;
        m_deltas = List.map (fun (name, _, _) -> name) deltas;
        m_checksums =
          List.map checksum ((layer_bdd_file n, dump) :: List.map (fun (dn, m) -> (layer_map_file n dn, m)) maps);
      }
  in
  List.iter (fun (dn, content) -> write_atomic (Filename.concat (subdir dir) (layer_map_file n dn)) content) maps;
  write_atomic (Filename.concat (subdir dir) (layer_bdd_file n)) dump;
  (* Layer manifest written last = the commit point of the layer. *)
  write_atomic (layer_manifest_path dir n) manifest;
  (n, snapshot)

let save_delta ~dir ~key ~config ~space ~deltas = fst (save_delta_snapshot ~dir ~key ~config ~space ~deltas)

(* Squash the chain back to a single base (LSM compaction): load the
   folded state, full-save it under the tip's key and config — which
   both orphans and then removes the old layers — and report how many
   layers were squashed.  Crash-safe by construction: every
   intermediate state is either the old chain (before the new base
   manifest commits) or the new base plus ignorable orphans. *)
let compact_snapshot ~dir =
  let st = load ~dir in
  if st.st_layers = 0 then (0, st.st_snapshot)
  else
    ( st.st_layers,
      save_snapshot ~dir ~key:st.st_key ~config:st.st_config ~space:st.st_space ~relations:(List.map snd st.st_rels)
    )

let compact ~dir = fst (compact_snapshot ~dir)

(* --- Semantic certification marks --- *)

(* Mark the current chain tip; [check] sees it before the write, from
   the same parse.  Returns the recorded pair. *)
let write_mark ~dir check =
  let c = open_chain ~broken:"cannot certify a broken delta chain" dir in
  let top = tip c in
  check top;
  write_atomic (mark_path dir) (render_mark top.m_key top.m_snapshot);
  (top.m_key, top.m_snapshot)

let mark_certified ~dir = write_mark ~dir ignore

let mark_certified_ident ~dir ~key ~snapshot =
  let still_tip top =
    if top.m_key <> key || top.m_snapshot <> snapshot then
      bad ~path:top.m_path ~line:0 "the chain tip moved to snapshot %d since snapshot %d was checked; not marked"
        top.m_snapshot snapshot
  in
  ignore (write_mark ~dir still_tip);
  (* A save committed during the write leaves the mark naming a
     superseded identity: harmless, but the caller must hear of it. *)
  still_tip (tip (open_chain ~broken:"cannot certify a broken delta chain" dir))

(* Test-only semantic corruption: delete the first tuple of [relation]
   (or insert an all-zeros tuple when it is empty) and re-save the
   folded state under the same key and config — through the ordinary
   write barrier, so every CRC and the manifest selfsum are freshly
   consistent and byte-level [verify] stays green.  Deletion is the
   interesting direction: a deleted derived tuple is re-derived by its
   own rule in one application, and a deleted input tuple fails input
   containment, so semantic certification must catch what nothing
   byte-level can.  The re-save bumps the snapshot (a new identity
   followers will consider), so no mark names it. *)
let corrupt_tuple_for_tests ~dir ~relation =
  let st = load ~dir in
  match List.assoc_opt relation st.st_rels with
  | None -> invalid_arg (Printf.sprintf "Store.corrupt_tuple_for_tests: no relation %s" relation)
  | Some r ->
    let man = Space.man st.st_space in
    let first = ref None in
    (try
       Relation.iter_tuples r (fun tu ->
           first := Some (Array.copy tu);
           raise Exit)
     with Exit -> ());
    let tmp = Relation.make st.st_space ~name:(relation ^ "#corrupt") (Relation.attrs r) in
    (match !first with
    | Some tu ->
      Relation.set_tuples tmp [ tu ];
      Relation.set_bdd r (Bdd.mk_diff man (Relation.bdd r) (Relation.bdd tmp))
    | None ->
      Relation.set_tuples tmp [ Array.make (Relation.arity r) 0 ];
      Relation.set_bdd r (Bdd.mk_or man (Relation.bdd r) (Relation.bdd tmp)));
    Relation.dispose tmp;
    save ~dir ~key:st.st_key ~config:st.st_config ~space:st.st_space ~relations:(List.map snd st.st_rels)

(* --- Verification and repair --- *)

type check = { chk_name : string; chk_ok : bool; chk_detail : string }

let verify ~dir =
  let checks = ref [] in
  let push name ok detail = checks := { chk_name = name; chk_ok = ok; chk_detail = detail } :: !checks in
  let check_files m =
    List.iter
      (fun ((file, size, crc) as ck) ->
        match verified_read dir ck with
        | exception Solver_error.Error e -> push file false (Solver_error.to_string e)
        | _ -> push file true (Printf.sprintf "crc32 %s, %d bytes" (Crc32.to_hex crc) size))
      m.m_checksums
  in
  let mpath = manifest_path dir in
  if not (Sys.file_exists mpath) then push "manifest" false (Printf.sprintf "no store at %s" dir)
  else begin
    (match parse_manifest Base mpath with
    | exception Solver_error.Error e -> push "manifest" false (Solver_error.to_string e)
    | m ->
      push "manifest" true
        (Printf.sprintf "key %s, %d relations, %d checksummed files" m.m_key (List.length m.m_relations)
           (List.length m.m_checksums));
      check_files m;
      (* Walk the delta chain: per-layer parse + selfsum, link
         validity, and per-layer data-file checksums.  A broken layer
         condemns only the tail from that index up — the base (and any
         layers below it) stay healthy and [quarantine_layers] can cut
         the tail off.  Orphaned layers (a base-snapshot from before a
         compact) and uncommitted debris (layer data with no manifest)
         are ignorable by construction and reported as healthy. *)
      let layers, chain_err = read_chain dir m in
      List.iter
        (fun l ->
          push (layer_manifest_file l.m_index) true
            (Printf.sprintf "key %s, snapshot %d, %d delta relations" l.m_key l.m_snapshot (List.length l.m_deltas));
          check_files l)
        layers;
      (match chain_err with
      | Some (n, msg) -> push (layer_manifest_file n) false msg
      | None -> ());
      (* Anything with a layer index beyond the valid chain that is
         not condemned above is orphaned/uncommitted debris. *)
      let chain_end = List.length layers in
      (match Sys.readdir (subdir dir) with
      | exception Sys_error _ -> ()
      | entries ->
        Array.iter
          (fun f ->
            match layer_file_index f with
            | Some i when i > chain_end && chain_err = None ->
              push f true "orphaned or uncommitted layer debris (ignored by load)"
            | _ -> ())
          entries));
    if List.for_all (fun c -> c.chk_ok) !checks then
      match load ~dir with
      | exception Solver_error.Error e -> push "structural load" false (Solver_error.to_string e)
      | exception e -> push "structural load" false (Printexc.to_string e)
      | st ->
        push "structural load" true
          (Printf.sprintf "%d relations, %d delta layers, %d live BDD nodes" (List.length st.st_rels)
             st.st_layers
             (Bdd.live_nodes (Space.man st.st_space)))
  end;
  List.rev !checks

(* The smallest layer index named by a failing check, when the base
   itself is healthy — the cut point for [quarantine_layers]. *)
let first_broken_layer checks =
  let base_broken =
    List.exists (fun c -> (not c.chk_ok) && layer_file_index c.chk_name = None) checks
  in
  if base_broken then None
  else
    List.fold_left
      (fun acc c ->
        if c.chk_ok then acc
        else
          match (layer_file_index c.chk_name, acc) with
          | Some i, Some j -> Some (min i j)
          | Some i, None -> Some i
          | None, _ -> acc)
      None checks

let quarantine ~dir =
  let sd = subdir dir in
  if not (Sys.file_exists sd) then None
  else begin
    let rec fresh i =
      let cand = Printf.sprintf "%s.broken.%d" sd i in
      if Sys.file_exists cand then fresh (i + 1) else cand
    in
    let dest = fresh 1 in
    Faults.fs_op ("rename " ^ dest);
    Sys.rename sd dest;
    fsync_dir dir;
    Some dest
  end

(* Cut a broken tail off the delta chain: move every layer file with
   index >= [from_layer] into a fresh [store/layers.broken.<k>/]
   directory.  The base and the layers below the cut keep serving —
   this is the surgical repair for a corrupted append, where full
   [quarantine] would throw away a healthy base. *)
let quarantine_layers ~dir ~from_layer =
  let sd = subdir dir in
  if not (Sys.file_exists sd) then None
  else begin
    let victims =
      match Sys.readdir sd with
      | exception Sys_error _ -> []
      | entries ->
        Array.to_list entries
        |> List.filter (fun f -> match layer_file_index f with Some i -> i >= from_layer | None -> false)
    in
    if victims = [] then None
    else begin
      let rec fresh i =
        let cand = Filename.concat sd (Printf.sprintf "layers.broken.%d" i) in
        if Sys.file_exists cand then fresh (i + 1) else cand
      in
      let dest = fresh 1 in
      mkdir_p dest;
      (* Manifests first: once a layer's manifest is gone it is
         uncommitted, so a crash mid-quarantine can only make the
         chain shorter, never inconsistent. *)
      let manifests, rest = List.partition (fun f -> Filename.check_suffix f ".manifest") victims in
      List.iter
        (fun f ->
          let src = Filename.concat sd f in
          Faults.fs_op ("rename " ^ Filename.concat dest f);
          try Sys.rename src (Filename.concat dest f) with Sys_error _ -> ())
        (manifests @ rest);
      fsync_dir sd;
      Some dest
    end
  end

let key t = t.st_key
let snapshot t = t.st_snapshot
let layers t = t.st_layers
let certified t = t.st_certified
let config t = t.st_config
let config_value t k = List.assoc_opt k t.st_config
let space t = t.st_space
let domain t name = List.assoc_opt name t.st_domains
let relations t = List.map snd t.st_rels
let find t name = List.assoc_opt name t.st_rels
