(* One real [msts serve] process: spawn, readiness (the first ping
   answered), CPU and memory read from /proc, SIGTERM and reap. *)

type t = { pid : int; socket : string; spawned_ns : int; ready_ns : int }

(* Daemons not yet reaped; killed and reaped if the benchmark exits
   early, so no run leaves a process behind. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Read one line from a blocking descriptor that carries nothing after
   it (a fresh connection with exactly one request in flight). *)
let read_line fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> None
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        let rec has_newline i = i < n && (Bytes.get chunk i = '\n' || has_newline (i + 1)) in
        if has_newline 0 then
          let s = Buffer.contents buf in
          Some (String.sub s 0 (String.index s '\n'))
        else go ()
  in
  go ()

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One request on a fresh connection. *)
let rpc socket line =
  match connect socket with
  | None -> failwith "perfbench: cannot connect to the daemon"
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          write_all fd line;
          match read_line fd with
          | Some r -> r
          | None -> failwith "perfbench: daemon closed the connection")

let ping_line = Workload.line_of Workload.ping 0

let args ~msts ~socket ~jobs ~cache_size =
  [|
    msts; "serve"; "--quiet"; "--socket"; socket; "--jobs"; string_of_int jobs;
    "--cache-size"; string_of_int cache_size;
  |]

(* Start the daemon and wait for its first ping answer; [ready_ns -
   spawned_ns] is the set-up time.  Daemon output goes to stderr so the
   benchmark's stdout carries only its own report. *)
let start ~msts ~socket ~jobs ~cache_size =
  if Sys.file_exists socket then Sys.remove socket;
  let spawned_ns = Clock.now_ns () in
  let pid =
    Unix.create_process msts (args ~msts ~socket ~jobs ~cache_size) Unix.stdin
      Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let deadline = spawned_ns + 10_000_000_000 in
  let rec wait () =
    if Clock.now_ns () > deadline then begin
      failwith "perfbench: daemon did not answer a ping within 10 s"
    end;
    match connect socket with
    | None ->
        Clock.sleep_s 0.0002;
        wait ()
    | Some fd ->
        write_all fd ping_line;
        let reply = read_line fd in
        let ready = Clock.now_ns () in
        Unix.close fd;
        (match reply with
        | Some r when Check.classify Msts.Api.Ping ~id:0 r = Check.Ok_reply -> ()
        | _ -> failwith "perfbench: bad ping reply at start-up");
        ready
  in
  let ready_ns = wait () in
  { pid; socket; spawned_ns; ready_ns }

let setup_s d = Clock.s_of_ns (d.ready_ns - d.spawned_ns)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Daemon CPU time (user + system, all threads) in nanoseconds, from each
   thread's schedstat; /proc/<pid>/stat ticks where schedstat is absent. *)
let cpu_ns d =
  let task_dir = Printf.sprintf "/proc/%d/task" d.pid in
  let from_schedstat =
    try
      Array.fold_left
        (fun acc tid ->
          match acc, read_file (Printf.sprintf "%s/%s/schedstat" task_dir tid) with
          | Some acc, Some s -> (
              match String.split_on_char ' ' (String.trim s) with
              | ns :: _ -> Some (acc + int_of_string ns)
              | [] -> None)
          | _ -> None)
        (Some 0) (Sys.readdir task_dir)
    with Sys_error _ | Failure _ -> None
  in
  match from_schedstat with
  | Some ns -> ns
  | None -> (
      match read_file (Printf.sprintf "/proc/%d/stat" d.pid) with
      | None -> failwith "perfbench: cannot read daemon CPU time"
      | Some s ->
          (* Fields after the parenthesised command name; utime and stime
             are fields 14 and 15, in 1/100 s ticks. *)
          let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
          let f = Array.of_list (String.split_on_char ' ' rest) in
          (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb d =
  match read_file (Printf.sprintf "/proc/%d/status" d.pid) with
  | None -> failwith "perfbench: cannot read daemon memory"
  | Some s ->
      let line =
        List.find
          (fun l -> String.starts_with ~prefix:"VmHWM:" l)
          (String.split_on_char '\n' s)
      in
      let kb = Scanf.sscanf line "VmHWM: %d kB" Fun.id in
      float_of_int kb /. 1024.0

let sigterm d = try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()

(* Reap the process; its exit code, or [None] when it had to be killed. *)
let reap ?(timeout_s = 15.0) d =
  let deadline = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Clock.now_ns () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          None
        end
        else begin
          Clock.sleep_s 0.005;
          go ()
        end
    | _, Unix.WEXITED c -> Some c
    | _, _ -> None
  in
  let code = go () in
  live := List.filter (fun p -> p <> d.pid) !live;
  if Sys.file_exists d.socket then Sys.remove d.socket;
  code

let stop d =
  sigterm d;
  reap d
