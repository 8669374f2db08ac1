(* The load generator: one process, [select] over at most nproc
   non-blocking connections, no Obs sink anywhere.  Every frame's send
   and reply instants are kept per stream position; replies are paired
   by the echoed id as they arrive, and decoded and checked once the
   phase's timed window is over. *)

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;  (** bytes of a reply line not yet complete *)
  out : Buffer.t;  (** frames the socket has not taken yet *)
  mutable out_off : int;
  mutable outstanding : int;
  mutable eof : bool;
}

let open_conns socket n =
  Array.init n (fun _ ->
      match Daemon.connect socket with
      | None -> failwith "perfbench: cannot connect to the daemon"
      | Some fd ->
          Unix.set_nonblock fd;
          {
            fd;
            partial = Buffer.create 4096;
            out = Buffer.create 4096;
            out_off = 0;
            outstanding = 0;
            eof = false;
          })

let close_conns conns =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns

(* ---------- accounting ---------- *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable refused : int;
  mutable errored : int;
  mutable bad : int;  (** wrong id or shape: a correctness failure *)
  mutable missing : int;
}

let tally () = { sent = 0; ok = 0; refused = 0; errored = 0; bad = 0; missing = 0 }
let failed t = t.refused + t.errored + t.bad + t.missing

let add_into ~into t =
  into.sent <- into.sent + t.sent;
  into.ok <- into.ok + t.ok;
  into.refused <- into.refused + t.refused;
  into.errored <- into.errored + t.errored;
  into.bad <- into.bad + t.bad;
  into.missing <- into.missing + t.missing

(* What a run keeps across phases: the stream, the reply sample kept for
   the deep check, and the first few problems seen. *)
type ctx = {
  stream : Workload.stream;
  keep : int -> bool;  (** stream positions whose reply is deep-checked *)
  mutable kept : (int * string) list;
  mutable notes : string list;
}

let note ctx m = if List.length ctx.notes < 20 then ctx.notes <- m :: ctx.notes

(* One phase's per-position record, positions [first, first + cap). *)
type phase = {
  name : string;
  first : int;
  cap : int;
  mutable next : int;  (** first position not sent *)
  due_ns : int array;  (** scheduled send instant (open loop) or send instant *)
  sent_ns : int array;
  recv_ns : int array;  (** -1 while unanswered *)
  ok : bool array;
  bytes : int array;  (** reply line length *)
  t : tally;
  mutable start_ns : int;
  mutable end_ns : int;  (** end of the sending window *)
  traced : bool;  (** keep a span per answered frame *)
  mutable unchecked : (int * string) list;  (** replies not yet classified *)
}

let phase ?(traced = false) name ~first ~cap =
  {
    traced;
    name;
    first;
    cap;
    next = first;
    due_ns = Array.make cap 0;
    sent_ns = Array.make cap 0;
    recv_ns = Array.make cap (-1);
    ok = Array.make cap false;
    bytes = Array.make cap 0;
    t = tally ();
    start_ns = 0;
    end_ns = 0;
    unchecked = [];
  }

(* ---------- socket plumbing ---------- *)

let flush c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then
    match Unix.write c.fd (Buffer.to_bytes c.out) c.out_off len with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.eof <- true

let send ctx ph c pos =
  let line = Workload.line ctx.stream pos in
  if Buffer.length c.out = 0 then begin
    match Unix.write_substring c.fd line 0 (String.length line) with
    | n when n = String.length line -> ()
    | n -> Buffer.add_substring c.out line n (String.length line - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        Buffer.add_string c.out line
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.eof <- true
  end
  else Buffer.add_string c.out line;
  let k = pos - ph.first in
  ph.sent_ns.(k) <- Clock.now_ns ();
  ph.t.sent <- ph.t.sent + 1;
  c.outstanding <- c.outstanding + 1

(* The correlation id, read from the fixed envelope prefix the daemon
   writes; [None] for anything else (then the full decode reports it). *)
let prefix = Workload.envelope ^ "\"id\":"

let reply_id line =
  let n = String.length prefix in
  if String.length line > n && String.starts_with ~prefix line then
    let rec digits i acc =
      if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
        digits (i + 1) ((acc * 10) + Char.code line.[i] - 48)
      else if i > n then Some acc
      else None
    in
    digits n 0
  else None

(* Record the reply to stream position [id] of [ph].  Decoding and
   checking wait for [classify]: a timed window only reads, timestamps and
   keeps lines, so the generator's own work does not delay its sends or
   compete with the daemon for the host's cores. *)
let account ctx ph ~id line now =
  let k = id - ph.first in
  if ph.recv_ns.(k) >= 0 then note ctx (Printf.sprintf "duplicate reply for id %d" id)
  else begin
    ph.recv_ns.(k) <- now;
    ph.bytes.(k) <- String.length line + 1;
    if ph.traced then
      Spans.record ~pass:"a" ~id ph.name ~start_ns:ph.sent_ns.(k) ~dur_ns:(now - ph.sent_ns.(k));
    ph.unchecked <- (id, line) :: ph.unchecked
  end

(* Decode and check every reply [account] kept, after the timed window. *)
let classify ctx ph =
  List.iter
    (fun (id, line) ->
      let k = id - ph.first in
      match Check.classify (Workload.get ctx.stream id).Workload.op ~id line with
      | Check.Ok_reply ->
          ph.ok.(k) <- true;
          ph.t.ok <- ph.t.ok + 1;
          if ctx.keep id then ctx.kept <- (id, line) :: ctx.kept
      | Check.Refused _ -> ph.t.refused <- ph.t.refused + 1
      | Check.Errored m ->
          ph.t.errored <- ph.t.errored + 1;
          note ctx (Printf.sprintf "id %d: %s" id m)
      | Check.Bad m ->
          ph.t.bad <- ph.t.bad + 1;
          note ctx (Printf.sprintf "id %d: %s" id m))
    (List.rev ph.unchecked);
  ph.unchecked <- []

let on_reply ctx phases c line now =
  c.outstanding <- c.outstanding - 1;
  match reply_id line with
  | None ->
      note ctx ("reply without a readable id: " ^ String.sub line 0 (min 80 (String.length line)))
  | Some id -> (
      match List.find_opt (fun ph -> id >= ph.first && id < ph.next) phases with
      | None -> ()  (* an answer to a frame already counted missing *)
      | Some ph -> account ctx ph ~id line now)

let chunk = Bytes.create 65536

(* Read everything the socket holds; complete lines go to [on_line]. *)
let read_conn c on_line =
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.eof <- true
    | n ->
        let now = Clock.now_ns () in
        let start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then begin
            let line =
              if Buffer.length c.partial = 0 then Bytes.sub_string chunk !start (i - !start)
              else begin
                Buffer.add_subbytes c.partial chunk !start (i - !start);
                let l = Buffer.contents c.partial in
                Buffer.clear c.partial;
                l
              end
            in
            on_line line now;
            start := i + 1
          end
        done;
        if !start < n then Buffer.add_subbytes c.partial chunk !start (n - !start);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> c.eof <- true
  in
  go ()

let outstanding conns = Array.fold_left (fun a c -> a + c.outstanding) 0 conns

(* One select round: wait at most [timeout_s], then read replies and
   flush pending output. *)
let poll ctx phases conns timeout_s =
  let live = List.filter (fun c -> not c.eof) (Array.to_list conns) in
  let reads = List.map (fun c -> c.fd) live in
  let writes =
    List.filter_map (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None) live
  in
  let readable, writable, _ =
    try Unix.select reads writes [] (Float.max 0.0 timeout_s)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun c ->
      if List.mem c.fd readable then
        read_conn c (fun line now -> on_reply ctx phases c line now);
      if List.mem c.fd writable then flush c)
    live

(* After the sending window: wait up to [grace_s] for outstanding replies;
   whatever is still unanswered is missing. *)
let settle ctx ph conns ~grace_s =
  let deadline = Clock.now_ns () + int_of_float (grace_s *. 1e9) in
  while
    outstanding conns > 0
    && Clock.now_ns () < deadline
    && Array.exists (fun c -> not c.eof) conns
  do
    poll ctx [ ph ] conns 0.01
  done;
  for k = 0 to ph.next - ph.first - 1 do
    if ph.recv_ns.(k) < 0 then ph.t.missing <- ph.t.missing + 1
  done;
  Array.iter (fun c -> c.outstanding <- 0) conns;
  classify ctx ph

(* ---------- the two loops ---------- *)

type closed_result = {
  cph : phase;
  done_ : int;  (** correct replies received within the window *)
  elapsed_ns : int;
  cpu_ns : int;  (** daemon CPU time over the window *)
  rps : float;  (** [done_] per second *)
}

(* Closed loop: every connection keeps [window] frames outstanding for
   [seconds].  Figures are whole-window totals: on a shared host whose
   speed drifts between states lasting seconds, a total blends the states
   smoothly where a median of short windows would jump between them. *)
let closed ?traced ctx conns ~name ~first ~window ~seconds ~cap ~cpu_ns =
  let ph = phase ?traced name ~first ~cap in
  Workload.ensure ctx.stream (first + cap);
  ph.start_ns <- Clock.now_ns ();
  ph.end_ns <- ph.start_ns + int_of_float (seconds *. 1e9);
  let cpu0 = cpu_ns () in
  let rec loop () =
    let now = Clock.now_ns () in
    if now < ph.end_ns then begin
      Array.iter
        (fun c ->
          while (not c.eof) && c.outstanding < window && ph.next < first + cap do
            send ctx ph c ph.next;
            ph.next <- ph.next + 1
          done)
        conns;
      poll ctx [ ph ] conns (Clock.s_of_ns (ph.end_ns - now));
      loop ()
    end
  in
  loop ();
  if ph.next = first + cap then note ctx (name ^ ": ran out of frames; throughput is capped");
  let elapsed = Clock.now_ns () - ph.start_ns in
  let cpu = cpu_ns () - cpu0 in
  let stop = ph.start_ns + elapsed in
  settle ctx ph conns ~grace_s:5.0;
  let done_ = ref 0 in
  for k = 0 to ph.next - first - 1 do
    if ph.ok.(k) && ph.recv_ns.(k) <= stop then incr done_
  done;
  let done_ = !done_ in
  { cph = ph; done_; elapsed_ns = elapsed; cpu_ns = cpu; rps = float_of_int done_ /. Clock.s_of_ns elapsed }

type open_result = {
  ph : phase;
  latency_us : float array;  (** per frame, from its due instant; infinite if failed *)
  late_us : float array;  (** send instant minus due instant *)
  behind : int;  (** frames never sent by the end of the schedule *)
}

(* Open loop: frame [k] is due at [start + k / rate]; it is sent as soon as
   it is due, whatever is outstanding, round-robin over the connections. *)
let open_loop ?traced ctx conns ~name ~first ~rate ~seconds =
  let count = int_of_float (rate *. seconds) in
  let ph = phase ?traced name ~first ~cap:count in
  Workload.ensure ctx.stream (first + count);
  let interval = 1e9 /. rate in
  ph.start_ns <- Clock.now_ns () + 1_000_000;
  for k = 0 to count - 1 do
    ph.due_ns.(k) <- ph.start_ns + int_of_float (float_of_int k *. interval)
  done;
  ph.end_ns <- ph.start_ns + int_of_float (seconds *. 1e9);
  let rr = ref 0 in
  let rec loop () =
    let now = Clock.now_ns () in
    let k = ph.next - first in
    if k < count && now < ph.end_ns + 1_000_000_000 then begin
      if ph.due_ns.(k) <= now then begin
        let c = conns.(!rr mod Array.length conns) in
        incr rr;
        send ctx ph c ph.next;
        ph.next <- ph.next + 1;
        poll ctx [ ph ] conns 0.0
      end
      else poll ctx [ ph ] conns (Clock.s_of_ns (ph.due_ns.(k) - now));
      loop ()
    end
  in
  loop ();
  let sent = ph.next - first in
  settle ctx ph conns ~grace_s:5.0;
  let latency_us =
    Array.init count (fun k ->
        if k < sent && ph.ok.(k) then Clock.us_of_ns (ph.recv_ns.(k) - ph.due_ns.(k))
        else Float.infinity)
  in
  let late_us = Array.init sent (fun k -> Clock.us_of_ns (ph.sent_ns.(k) - ph.due_ns.(k))) in
  ph.t.missing <- ph.t.missing + (count - sent);
  { ph; latency_us; late_us; behind = count - sent }

(* Send [count] frames, all at once, on the connections (the warm-up). *)
let burst ctx conns ~name ~first ~count =
  let ph = phase name ~first ~cap:count in
  Workload.ensure ctx.stream (first + count);
  ph.start_ns <- Clock.now_ns ();
  for k = 0 to count - 1 do
    send ctx ph conns.(k mod Array.length conns) (first + k);
    ph.next <- ph.next + 1
  done;
  ph.end_ns <- Clock.now_ns ();
  settle ctx ph conns ~grace_s:30.0;
  ph

(* SIGTERM drain audit: write [count] frames, signal the daemon before
   reading any answer, then read until every connection closes.  Each
   written frame must be answered and the daemon must exit 0; a frame
   left unanswered is a missing reply. *)
let drain_audit ctx conns daemon ~first ~count =
  let ph = phase "drain" ~first ~cap:count in
  Workload.ensure ctx.stream (first + count);
  for k = 0 to count - 1 do
    send ctx ph conns.(k mod Array.length conns) (first + k);
    ph.next <- ph.next + 1
  done;
  Array.iter
    (fun c ->
      while Buffer.length c.out > c.out_off && not c.eof do
        ignore (Unix.select [] [ c.fd ] [] 1.0);
        flush c
      done)
    conns;
  Daemon.sigterm daemon;
  let deadline = Clock.now_ns () + 15_000_000_000 in
  while Array.exists (fun c -> not c.eof) conns && Clock.now_ns () < deadline do
    poll ctx [ ph ] conns 0.05
  done;
  let code = Daemon.reap daemon in
  for k = 0 to count - 1 do
    if ph.recv_ns.(k) < 0 then ph.t.missing <- ph.t.missing + 1
  done;
  classify ctx ph;
  (ph, code)

(* One frame at a time on a fresh blocking connection, for at most
   [budget_s] or [cap] frames; [after id] runs once frame [id] is
   answered (the traced run's in-process passes). *)
let lockstep ctx socket ~first ~cap ~budget_s ~after =
  let ph = phase ~traced:true "lockstep" ~first ~cap in
  Workload.ensure ctx.stream (first + cap);
  let fd =
    match Daemon.connect socket with
    | Some fd -> fd
    | None -> failwith "perfbench: cannot connect for the lockstep pass"
  in
  let budget = Clock.now_ns () + int_of_float (budget_s *. 1e9) in
  let closed = ref false in
  while (not !closed) && ph.next < first + cap && Clock.now_ns () < budget do
    let id = ph.next in
    let k = id - first in
    let line = Workload.line ctx.stream id in
    ph.sent_ns.(k) <- Clock.now_ns ();
    Daemon.write_all fd line;
    ph.t.sent <- ph.t.sent + 1;
    ph.next <- id + 1;
    match Daemon.read_line fd with
    | None ->
        ph.t.missing <- ph.t.missing + 1;
        closed := true
    | Some reply ->
        let now = Clock.now_ns () in
        account ctx ph ~id reply now;
        after id (now - ph.sent_ns.(k))
  done;
  Unix.close fd;
  classify ctx ph;
  ph
