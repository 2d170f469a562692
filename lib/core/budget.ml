type reason =
  | Live_nodes of { limit : int; actual : int }
  | Allocations of { limit : int; actual : int }
  | Timeout of { limit_s : float }
  | Iterations of { limit : int }
  | Cancelled

type t = {
  max_live_nodes : int option;
  max_allocations : int option;
  max_iterations : int option;
  timeout_s : float option;
  deadline : float option; (* absolute, fixed at [make] *)
  mutable cancelled : bool;
  mutable on_check : (t -> unit) option; (* fault injection; tests only *)
}

let make ?max_live_nodes ?max_allocations ?max_iterations ?timeout_s () =
  {
    max_live_nodes;
    max_allocations;
    max_iterations;
    timeout_s;
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s;
    cancelled = false;
    on_check = None;
  }

let unlimited () = make ()

let cancel b = b.cancelled <- true
let is_cancelled b = b.cancelled

let set_check_hook b h = b.on_check <- h

let run_hook b =
  match b.on_check with
  | Some f -> f b
  | None -> ()

(* Cancellation is tested before the deadline so an injected cancel is
   reported as [Cancelled] even when the clock has also run out. *)
let interrupt_after_hook b =
  if b.cancelled then Some Cancelled
  else
    match b.deadline with
    | Some d when Unix.gettimeofday () > d -> Some (Timeout { limit_s = Option.value b.timeout_s ~default:0.0 })
    | Some _ | None -> None

let check_interrupt b =
  run_hook b;
  interrupt_after_hook b

let check_nodes b ~live ~allocs =
  run_hook b;
  match interrupt_after_hook b with
  | Some r -> Some r
  | None -> (
    match b.max_live_nodes with
    | Some limit when live > limit -> Some (Live_nodes { limit; actual = live })
    | Some _ | None -> (
      match b.max_allocations with
      | Some limit when allocs > limit -> Some (Allocations { limit; actual = allocs })
      | Some _ | None -> None))

let check_iterations b ~iterations =
  run_hook b;
  match interrupt_after_hook b with
  | Some r -> Some r
  | None -> (
    match b.max_iterations with
    | Some limit when iterations > limit -> Some (Iterations { limit })
    | Some _ | None -> None)

let reason_to_string = function
  | Live_nodes { limit; actual } -> Printf.sprintf "live BDD nodes %d exceeded the limit of %d" actual limit
  | Allocations { limit; actual } -> Printf.sprintf "BDD node allocations %d exceeded the limit of %d" actual limit
  | Timeout { limit_s } -> Printf.sprintf "wall-clock timeout of %gs exceeded" limit_s
  | Iterations { limit } -> Printf.sprintf "fixpoint iteration limit of %d exceeded" limit
  | Cancelled -> "cancelled"
