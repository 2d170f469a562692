(** A Java-like intermediate representation — the stand-in for the
    paper's Joeq bytecode frontend.

    The IR models exactly what the analyses consume: classes with
    single inheritance, reference-typed fields (static and instance),
    methods with formals/locals/returns, and the pointer-relevant
    statements (allocation, copy, cast, field load/store, static
    load/store, virtual/static/special invocation, return, monitor
    synchronization).  Primitive values and intraprocedural control
    flow are deliberately absent: the paper's analysis is
    flow-insensitive apart from local-copy factoring (see
    {!Local_opt}), so straight-line bodies lose nothing.

    Allocation sites are modeled as invocations of the class's [<init>]
    method, giving the paper's [H ⊆ I] property (heap objects are named
    by the invocation sites of object-creation methods): every [New]
    carries both a heap id and the invoke id of its constructor call.

    All entities are identified by dense integer ids, which become the
    element ordinals of the Datalog domains ([V], [H], [F], [T], [I],
    [N], [M], [Z]). *)

type class_id = int
type field_id = int
type method_id = int
type var_id = int
type heap_id = int
type invoke_id = int

type invoke_kind = Virtual | Static | Special

type stmt =
  | New of { dst : var_id; cls : class_id; heap : heap_id; init_site : invoke_id; args : var_id list }
      (** [dst = new C(args)]: allocation plus constructor call. *)
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
      base : var_id option;  (** receiver; [None] for static calls *)
      name : string;  (** method name; dispatch key for virtual calls *)
      target : method_id option;  (** statically bound target, if known *)
      args : var_id list;  (** excluding the receiver *)
    }
  | Array_load of { dst : var_id; base : var_id }  (** [dst = base[]] *)
  | Array_store of { base : var_id; src : var_id }  (** [base[] = src] *)
  | Throw of var_id
  | Catch of var_id  (** the variable receives the method's in-flight exception *)
  | Return of var_id
  | Sync of var_id  (** a synchronization operation on the variable *)

type jclass = {
  cls_id : class_id;
  cls_name : string;
  cls_super : class_id option;  (** [None] only for the root Object *)
  cls_interface : bool;
  mutable cls_impls : class_id list;
      (** for a class: implemented interfaces; for an interface: its
          super-interfaces *)
  mutable cls_fields : field_id list;
  mutable cls_methods : method_id list;
}

type jfield = { fld_id : field_id; fld_name : string; fld_owner : class_id; fld_type : class_id; fld_static : bool }

type jvar = {
  v_id : var_id;
  v_name : string;
  v_type : class_id;
  v_owner : method_id option;  (** [None] for the special global variable *)
}

type jmethod = {
  m_id : method_id;
  m_name : string;
  m_owner : class_id;
  m_static : bool;
  m_formals : var_id list;  (** receiver first for instance methods *)
  m_ret : class_id option;
  m_exc : var_id;
      (** the method's exception variable (thrown/caught values flow
          through it); a real var allocated at method-creation time so
          its id stays stable under append-only program edits.  Not a
          member of [m_locals]; the printer omits it. *)
  mutable m_locals : var_id list;
  mutable m_body : stmt list;
}

type heap_site = { h_id : heap_id; h_cls : class_id; h_method : method_id; h_label : string }
type invoke_site = { i_id : invoke_id; i_method : method_id; i_label : string }

type t
(** A mutable program under construction / analysis. *)

val create : unit -> t
(** A fresh program containing the built-in classes [Object] (id 0),
    [Thread], and [String], each with an implicit empty [<init>], the
    special global variable (id 0) used for static field access, and
    the abstract global heap node (heap id 0) it points at. *)

(** {2 Built-ins} *)

val object_class : t -> class_id
val thread_class : t -> class_id
val string_class : t -> class_id
val global_var : t -> var_id

val global_heap : t -> heap_id
(** The abstract heap node for the global object; always heap 0. *)

val array_field : t -> field_id
(** The special field descriptor denoting an array element access
    (§2.2: "There is a special field descriptor to denote an array
    access"). *)

(** {2 Construction} *)

val add_class : ?impls:class_id list -> t -> name:string -> super:class_id -> class_id
(** Also creates the implicit empty [<init>] constructor.  [impls]
    must be interfaces. *)

val add_interface : ?extends:class_id list -> t -> name:string -> class_id
(** Interfaces carry no fields, methods, or constructor — the paper's
    [M] domain "does not include abstract or interface methods"; they
    exist for the assignability relation [aT] (§2.3: "with allowances
    for interfaces"). *)

val add_field : t -> name:string -> owner:class_id -> ty:class_id -> static:bool -> field_id

val add_method :
  t -> name:string -> owner:class_id -> static:bool -> formals:(string * class_id) list -> ret:class_id option ->
  method_id
(** For instance methods a receiver formal [this : owner] is prepended
    automatically. *)

val redeclare_init : t -> class_id -> formals:(string * class_id) list -> method_id
(** Give the class's implicit [<init>] real formals (receiver is
    prepended automatically).  The body, if any, is kept. *)

val add_local : t -> method_id -> name:string -> ty:class_id -> var_id
val add_entry : t -> method_id -> unit
(** Register an entry method ([main], class initializers, finalizers). *)

(** {2 Statement emission (appended to the method body)} *)

val emit_new : t -> ?label:string -> method_id -> dst:var_id -> cls:class_id -> args:var_id list -> heap_id
val emit_assign : t -> method_id -> dst:var_id -> src:var_id -> unit
val emit_cast : t -> method_id -> dst:var_id -> src:var_id -> target:class_id -> unit
val emit_load : t -> method_id -> dst:var_id -> base:var_id -> fld:field_id -> unit
val emit_store : t -> method_id -> base:var_id -> fld:field_id -> src:var_id -> unit
val emit_load_static : t -> method_id -> dst:var_id -> fld:field_id -> unit
val emit_store_static : t -> method_id -> fld:field_id -> src:var_id -> unit

val emit_invoke_virtual :
  t -> ?label:string -> ?ret:var_id -> method_id -> base:var_id -> name:string -> args:var_id list -> invoke_id

val emit_invoke_static :
  t -> ?label:string -> ?ret:var_id -> method_id -> target:method_id -> args:var_id list -> invoke_id

val emit_invoke_special :
  t -> ?label:string -> ?ret:var_id -> method_id -> base:var_id -> target:method_id -> args:var_id list -> invoke_id

val emit_array_load : t -> method_id -> dst:var_id -> base:var_id -> unit
val emit_array_store : t -> method_id -> base:var_id -> src:var_id -> unit
val emit_throw : t -> method_id -> var_id -> unit
val emit_catch : t -> method_id -> var_id -> unit
val emit_return : t -> method_id -> var_id -> unit
val emit_sync : t -> method_id -> var_id -> unit

(** {2 Access} *)

val num_classes : t -> int
val num_fields : t -> int
val num_methods : t -> int
val num_vars : t -> int
val num_heaps : t -> int
val num_invokes : t -> int

val cls : t -> class_id -> jclass
val field : t -> field_id -> jfield
val meth : t -> method_id -> jmethod
val var : t -> var_id -> jvar
val heap : t -> heap_id -> heap_site
val invoke : t -> invoke_id -> invoke_site

val entries : t -> method_id list

val find_class : t -> string -> class_id option
val find_method : t -> class_id -> string -> method_id option
(** Method declared in exactly this class (no inheritance walk). *)

val init_method : t -> class_id -> method_id
(** The class's [<init>]. *)

val iter_classes : t -> (jclass -> unit) -> unit
val iter_methods : t -> (jmethod -> unit) -> unit
val iter_fields : t -> (jfield -> unit) -> unit
val iter_vars : t -> (jvar -> unit) -> unit
val iter_heaps : t -> (heap_site -> unit) -> unit

val stmt_count : t -> int
(** Total statements — the stand-in for Figure 3's bytecode counts. *)
