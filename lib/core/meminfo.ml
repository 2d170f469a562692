(* /proc/self/status is line-oriented "Key:\tvalue kB"; absent on
   non-Linux systems, in which case every probe reports None. *)

let status_field key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = key ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > String.length prefix && String.sub line 0 (String.length prefix) = prefix then begin
          let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
          let digits = String.to_seq rest |> Seq.filter (fun c -> c >= '0' && c <= '9') |> String.of_seq in
          match int_of_string_opt digits with
          | Some v -> Some v
          | None -> None
        end
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let peak_rss_kb () = status_field "VmHWM"
