type class_id = int
type field_id = int
type method_id = int
type var_id = int
type heap_id = int
type invoke_id = int

type invoke_kind = Virtual | Static | Special

type stmt =
  | New of { dst : var_id; cls : class_id; heap : heap_id; init_site : invoke_id; args : var_id list }
  | Assign of { dst : var_id; src : var_id }
  | Cast of { dst : var_id; src : var_id; target : class_id }
  | Load of { dst : var_id; base : var_id; fld : field_id }
  | Store of { base : var_id; fld : field_id; src : var_id }
  | Load_static of { dst : var_id; fld : field_id }
  | Store_static of { fld : field_id; src : var_id }
  | Invoke of {
      ret : var_id option;
      kind : invoke_kind;
      site : invoke_id;
      base : var_id option;
      name : string;
      target : method_id option;
      args : var_id list;
    }
  | Array_load of { dst : var_id; base : var_id }
  | Array_store of { base : var_id; src : var_id }
  | Throw of var_id
  | Catch of var_id
  | Return of var_id
  | Sync of var_id

type jclass = {
  cls_id : class_id;
  cls_name : string;
  cls_super : class_id option;
  cls_interface : bool;
  mutable cls_impls : class_id list;
  mutable cls_fields : field_id list;
  mutable cls_methods : method_id list;
}

type jfield = { fld_id : field_id; fld_name : string; fld_owner : class_id; fld_type : class_id; fld_static : bool }
type jvar = { v_id : var_id; v_name : string; v_type : class_id; v_owner : method_id option }

type jmethod = {
  m_id : method_id;
  m_name : string;
  m_owner : class_id;
  m_static : bool;
  m_formals : var_id list;
  m_ret : class_id option;
  m_exc : var_id;
  mutable m_locals : var_id list;
  mutable m_body : stmt list;
}

type heap_site = { h_id : heap_id; h_cls : class_id; h_method : method_id; h_label : string }
type invoke_site = { i_id : invoke_id; i_method : method_id; i_label : string }

(* Dense tables: id -> entity, ids allocated consecutively. *)
type 'a table = { mutable items : 'a array; mutable len : int }

let table_make () = { items = [||]; len = 0 }

let table_add tb x =
  if tb.len = Array.length tb.items then begin
    let cap = max 16 (2 * Array.length tb.items) in
    let items = Array.make cap x in
    Array.blit tb.items 0 items 0 tb.len;
    tb.items <- items
  end;
  tb.items.(tb.len) <- x;
  tb.len <- tb.len + 1;
  tb.len - 1

let table_get tb i =
  if i < 0 || i >= tb.len then invalid_arg "Ir: id out of range";
  tb.items.(i)

let table_iter tb f =
  for i = 0 to tb.len - 1 do
    f tb.items.(i)
  done

type t = {
  classes : jclass table;
  fields : jfield table;
  methods : jmethod table;
  vars : jvar table;
  heaps : heap_site table;
  invokes : invoke_site table;
  mutable entry_methods : method_id list;
  mutable object_cls : class_id;
  mutable thread_cls : class_id;
  mutable string_cls : class_id;
  mutable global : var_id;
  mutable array_fld : field_id;
  by_class_name : (string, class_id) Hashtbl.t;
}

let num_classes t = t.classes.len
let num_fields t = t.fields.len
let num_methods t = t.methods.len
let num_vars t = t.vars.len
let num_heaps t = t.heaps.len
let num_invokes t = t.invokes.len

let cls t i = table_get t.classes i
let field t i = table_get t.fields i
let meth t i = table_get t.methods i
let var t i = table_get t.vars i
let heap t i = table_get t.heaps i
let invoke t i = table_get t.invokes i

let entries t = List.rev t.entry_methods

let find_class t name = Hashtbl.find_opt t.by_class_name name

let find_method t c name =
  let rec go = function
    | [] -> None
    | m :: rest -> if (table_get t.methods m).m_name = name then Some m else go rest
  in
  go (table_get t.classes c).cls_methods

let add_var t ~name ~ty ~owner =
  let id = t.vars.len in
  ignore (table_add t.vars { v_id = id; v_name = name; v_type = ty; v_owner = owner });
  id

let add_method t ~name ~owner ~static ~formals ~ret =
  let id = t.methods.len in
  let m =
    { m_id = id; m_name = name; m_owner = owner; m_static = static; m_formals = []; m_ret = ret; m_exc = -1; m_locals = []; m_body = [] }
  in
  ignore (table_add t.methods m);
  let formals = if static then formals else ("this", owner) :: formals in
  let formal_ids = List.map (fun (n, ty) -> add_var t ~name:n ~ty ~owner:(Some id)) formals in
  (* The method's exception variable (the paper's V includes thrown
     exceptions) is a real var allocated here, at method-creation time:
     its id is interleaved with the program's ids in construction
     order, so append-only program edits never renumber it.  It is not
     a local — the printer omits it and re-parsing re-creates it at
     the same position. *)
  let exc = add_var t ~name:"<exc>" ~ty:t.object_cls ~owner:(Some id) in
  let m = table_get t.methods id in
  let m = { m with m_formals = formal_ids; m_exc = exc } in
  t.methods.items.(id) <- m;
  let c = table_get t.classes owner in
  c.cls_methods <- c.cls_methods @ [ id ];
  id

let add_class ?(impls = []) t ~name ~super =
  if Hashtbl.mem t.by_class_name name then invalid_arg (Printf.sprintf "Ir.add_class: duplicate class %s" name);
  if (cls t super).cls_interface then invalid_arg (Printf.sprintf "Ir.add_class: superclass of %s is an interface" name);
  List.iter
    (fun i ->
      if not (cls t i).cls_interface then invalid_arg (Printf.sprintf "Ir.add_class: %s implements a non-interface" name))
    impls;
  let id = t.classes.len in
  ignore
    (table_add t.classes
       {
         cls_id = id;
         cls_name = name;
         cls_super = Some super;
         cls_interface = false;
         cls_impls = impls;
         cls_fields = [];
         cls_methods = [];
       });
  Hashtbl.add t.by_class_name name id;
  ignore (add_method t ~name:"<init>" ~owner:id ~static:false ~formals:[] ~ret:None);
  id

let add_interface ?(extends = []) t ~name =
  if Hashtbl.mem t.by_class_name name then invalid_arg (Printf.sprintf "Ir.add_interface: duplicate class %s" name);
  List.iter
    (fun i ->
      if not (cls t i).cls_interface then invalid_arg (Printf.sprintf "Ir.add_interface: %s extends a non-interface" name))
    extends;
  let id = t.classes.len in
  ignore
    (table_add t.classes
       {
         cls_id = id;
         cls_name = name;
         cls_super = Some t.object_cls;
         cls_interface = true;
         cls_impls = extends;
         cls_fields = [];
         cls_methods = [];
       });
  Hashtbl.add t.by_class_name name id;
  id

let add_field t ~name ~owner ~ty ~static =
  let id = t.fields.len in
  ignore (table_add t.fields { fld_id = id; fld_name = name; fld_owner = owner; fld_type = ty; fld_static = static });
  let c = table_get t.classes owner in
  c.cls_fields <- c.cls_fields @ [ id ];
  id

let add_root_class t ~name =
  let id = t.classes.len in
  ignore
    (table_add t.classes
       {
         cls_id = id;
         cls_name = name;
         cls_super = None;
         cls_interface = false;
         cls_impls = [];
         cls_fields = [];
         cls_methods = [];
       });
  Hashtbl.add t.by_class_name name id;
  id

let create () =
  let t =
    {
      classes = table_make ();
      fields = table_make ();
      methods = table_make ();
      vars = table_make ();
      heaps = table_make ();
      invokes = table_make ();
      entry_methods = [];
      object_cls = 0;
      thread_cls = 0;
      string_cls = 0;
      global = 0;
      array_fld = 0;
      by_class_name = Hashtbl.create 64;
    }
  in
  let obj = add_root_class t ~name:"Object" in
  t.object_cls <- obj;
  ignore (add_method t ~name:"<init>" ~owner:obj ~static:false ~formals:[] ~ret:None);
  (* The special global variable for static field access (§2.2). *)
  t.global <- add_var t ~name:"<global>" ~ty:obj ~owner:None;
  (* The abstract heap node the global variable points at: heap 0,
     allocated before any program heap so its id never moves as the
     program grows (incremental re-analysis relies on append-only edits
     keeping existing element ids stable). *)
  ignore (table_add t.heaps { h_id = 0; h_cls = obj; h_method = 0; h_label = "<global>" });
  let thread = add_class t ~name:"Thread" ~super:obj in
  t.thread_cls <- thread;
  ignore (add_method t ~name:"run" ~owner:thread ~static:false ~formals:[] ~ret:None);
  let string = add_class t ~name:"String" ~super:obj in
  t.string_cls <- string;
  (* The special array-element field descriptor, owned by Object. *)
  t.array_fld <- add_field t ~name:"<elem>" ~owner:obj ~ty:obj ~static:false;
  t

let object_class t = t.object_cls
let thread_class t = t.thread_cls
let string_class t = t.string_cls
let global_var t = t.global
let global_heap (_ : t) : heap_id = 0
let array_field t = t.array_fld

let add_local t m ~name ~ty =
  let id = add_var t ~name ~ty ~owner:(Some m) in
  let mm = table_get t.methods m in
  mm.m_locals <- mm.m_locals @ [ id ];
  id

let add_entry t m = t.entry_methods <- m :: t.entry_methods

let init_method t c =
  match find_method t c "<init>" with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Ir.init_method: class %s has no <init>" (cls t c).cls_name)

let redeclare_init t c ~formals =
  let m = init_method t c in
  let formal_ids = List.map (fun (n, ty) -> add_var t ~name:n ~ty ~owner:(Some m)) formals in
  let mm = table_get t.methods m in
  let this =
    match mm.m_formals with
    | this :: _ -> this
    | [] -> invalid_arg "Ir.redeclare_init: constructor without receiver"
  in
  t.methods.items.(m) <- { mm with m_formals = this :: formal_ids };
  m

let push_stmt t m s =
  let mm = table_get t.methods m in
  mm.m_body <- mm.m_body @ [ s ]

let fresh_invoke t m label =
  let id = t.invokes.len in
  ignore (table_add t.invokes { i_id = id; i_method = m; i_label = label });
  id

let emit_new t ?label m ~dst ~cls:c ~args =
  if (cls t c).cls_interface then invalid_arg "Ir.emit_new: cannot instantiate an interface";
  let h_id = t.heaps.len in
  let label = Option.value label ~default:(Printf.sprintf "%s:new%d" (meth t m).m_name h_id) in
  ignore (table_add t.heaps { h_id; h_cls = c; h_method = m; h_label = label });
  let init_site = fresh_invoke t m (label ^ ":<init>") in
  push_stmt t m (New { dst; cls = c; heap = h_id; init_site; args });
  h_id

let emit_assign t m ~dst ~src = push_stmt t m (Assign { dst; src })
let emit_cast t m ~dst ~src ~target = push_stmt t m (Cast { dst; src; target })
let emit_load t m ~dst ~base ~fld = push_stmt t m (Load { dst; base; fld })
let emit_store t m ~base ~fld ~src = push_stmt t m (Store { base; fld; src })
let emit_load_static t m ~dst ~fld = push_stmt t m (Load_static { dst; fld })
let emit_store_static t m ~fld ~src = push_stmt t m (Store_static { fld; src })

let emit_invoke_virtual t ?label ?ret m ~base ~name ~args =
  let site = fresh_invoke t m (Option.value label ~default:(Printf.sprintf "%s:call%d" (meth t m).m_name t.invokes.len)) in
  push_stmt t m (Invoke { ret; kind = Virtual; site; base = Some base; name; target = None; args });
  site

let emit_invoke_static t ?label ?ret m ~target ~args =
  let site = fresh_invoke t m (Option.value label ~default:(Printf.sprintf "%s:scall%d" (meth t m).m_name t.invokes.len)) in
  let name = (meth t target).m_name in
  push_stmt t m (Invoke { ret; kind = Static; site; base = None; name; target = Some target; args });
  site

let emit_invoke_special t ?label ?ret m ~base ~target ~args =
  let site = fresh_invoke t m (Option.value label ~default:(Printf.sprintf "%s:icall%d" (meth t m).m_name t.invokes.len)) in
  let name = (meth t target).m_name in
  push_stmt t m (Invoke { ret; kind = Special; site; base = Some base; name; target = Some target; args });
  site

let emit_array_load t m ~dst ~base = push_stmt t m (Array_load { dst; base })
let emit_array_store t m ~base ~src = push_stmt t m (Array_store { base; src })
let emit_throw t m v = push_stmt t m (Throw v)
let emit_catch t m v = push_stmt t m (Catch v)
let emit_return t m v = push_stmt t m (Return v)
let emit_sync t m v = push_stmt t m (Sync v)

let iter_classes t f = table_iter t.classes f
let iter_methods t f = table_iter t.methods f
let iter_fields t f = table_iter t.fields f
let iter_vars t f = table_iter t.vars f
let iter_heaps t f = table_iter t.heaps f

let stmt_count t =
  let n = ref 0 in
  table_iter t.methods (fun m -> n := !n + List.length m.m_body);
  !n
