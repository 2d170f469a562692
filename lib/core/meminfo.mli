(** Process-level memory observability.

    The paged node arena accounts for its own bytes exactly, but the
    paper-style memory story ("did the solve fit?") also needs the
    process view: peak resident set size as the kernel saw it,
    including the OCaml heap, the op caches and the buffer pool.  The
    probe reads [/proc/self/status] and returns [None] where it does
    not exist (non-Linux), so callers print "n/a" rather than fail. *)

val peak_rss_kb : unit -> int option
(** Peak resident set size ([VmHWM]) in kilobytes. *)
