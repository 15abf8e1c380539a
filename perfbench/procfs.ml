(* Process accounting from /proc: peak resident set (VmHWM) and CPU time.
   Linux reports utime/stime in USER_HZ ticks, which is 100 per second. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> Some (In_channel.input_all ic))

let proc pid = if pid = 0 then "/proc/self" else Printf.sprintf "/proc/%d" pid

(* Peak resident set in MiB; [None] once the process is gone. *)
let vm_hwm_mb pid =
  Option.bind (read_file (proc pid ^ "/status")) (fun s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> None)
        (String.split_on_char '\n' s))

(* User plus system CPU seconds. The command name in field 2 may contain
   spaces, so fields are counted from its closing parenthesis. *)
let cpu_s pid =
  Option.bind (read_file (proc pid ^ "/stat")) (fun s ->
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          match String.split_on_char ' ' rest with
          | _state :: fields when List.length fields > 12 ->
              let utime = int_of_string (List.nth fields 10)
              and stime = int_of_string (List.nth fields 11) in
              Some (float_of_int (utime + stime) /. 100.0)
          | _ -> None))

(* Running or sleeping: a zombie that nobody has reaped yet counts as gone. *)
let alive pid =
  match read_file (proc pid ^ "/stat") with
  | None -> false
  | Some s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z' && s.[i + 2] <> 'X'
      | _ -> false)
