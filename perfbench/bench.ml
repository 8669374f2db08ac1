(* The repository benchmark: hot, cold and batch traffic against a real
   [msts serve] daemon.

     bench.exe --msts PATH --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 (timed run): start the daemon several times (set-up time),
   warm up, saturate it closed-loop for throughput, drive it open-loop at
   the workload's fixed rate for latency, read its CPU time and peak RSS,
   then finish with the SIGTERM drain audit.  The load generator installs
   no telemetry sink.

   --trace 1 (traced run, same seed): the same daemon and traffic with
   client-side spans, then three passes over one stretch of frames: (a)
   lockstep on the live daemon, (b) through an embedded engine, (c)
   through each layer's public function.  Prints the per-layer metrics
   and writes every span to .perfbench/.

   Every reply is decoded and its id and shape checked; a seeded sample is
   rebuilt into a plan, audited with the Definition-1 checker and compared
   with a reference solve.  The last stdout line is the JSON result; the
   exit code is 1 when any check fails. *)

open Perfbench
module Api = Msts.Api
module Json = Msts.Json
module W = Workload
module L = Loadgen

let usage () =
  prerr_endline "usage: bench.exe --msts PATH --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        Hashtbl.replace tbl key v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let spec = match W.find (get "--workload") with Some s -> s | None -> usage () in
  let seconds = int "--seconds" in
  let trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (get "--msts", spec, int "--seed", float_of_int seconds, trace = 1)

let run_dir = ".perfbench"
let nproc = Domain.recommended_domain_count ()

(* The commit, when the checkout carries git metadata; read from files in
   the checkout only. *)
let commit () =
  let read p =
    try Some (String.trim (In_channel.with_open_bin p In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      Option.value ~default:"unknown" (read (".git/" ^ String.sub head 5 (String.length head - 5)))
  | Some c -> c
  | None -> "unknown"

(* Daemon starts per run; setup_s is their median. *)
let setups = 21

(* latency_p99_us is the p99 of each block of [p99_block] consecutive
   open-loop requests (ten beyond the percentile), median over blocks: a
   host stall of a few hundred milliseconds then spoils one block instead
   of the whole run's tail. *)
let p99_block = 1000

let block_p99 lat =
  let blocks = max 1 (Array.length lat / p99_block) in
  let per =
    Array.init blocks (fun b ->
        let len = if b = blocks - 1 then Array.length lat - (b * p99_block) else p99_block in
        Stats.quantile (Array.sub lat (b * p99_block) len) 0.99)
  in
  (Stats.median per, blocks)

(* Which replies are deep-checked: on serve-hot the first reply of every
   distinct frame, elsewhere a seeded one-in-[n] sample with a cap. *)
let keeper (spec : W.spec) seed stream =
  match spec.W.kind with
  | W.Hot ->
      let seen = Hashtbl.create 64 in
      fun id ->
        let body = (W.get stream id).W.body in
        (not (Hashtbl.mem seen body)) && (Hashtbl.add seen body (); true)
  | W.Cold | W.Batch ->
      let one_in, cap = if spec.W.kind = W.Cold then (24, 300) else (8, 40) in
      let kept = ref 0 in
      fun id ->
        !kept < cap && Hashtbl.hash (seed, id) mod one_in = 0 && (incr kept; true)

let deep_check ctx =
  let failures = ref 0 in
  List.iter
    (fun (id, line) ->
      match Check.deep_line (W.get ctx.L.stream id).W.op ~id line with
      | Ok () -> ()
      | Error m ->
          incr failures;
          L.note ctx (Printf.sprintf "id %d failed the deep check: %s" id m))
    (List.rev ctx.L.kept);
  (List.length ctx.L.kept, !failures)

(* ---------- one run ---------- *)

type run = {
  spec : W.spec;
  seed : int;
  seconds : float;
  ctx : L.ctx;
  daemon : Daemon.t;
  conns : L.conn array;
  mutable pos : int;  (** next unsent stream position *)
  mutable phases : L.phase list;
}

(* A result row: name, value, unit, and how it was measured. *)
type row = string * float * string * string

(* JSON has no infinity; a latency percentile that lands on a failed
   request (infinitely late) is written as 1e12. *)
let finite v = if Float.is_finite v then v else 1e12

let add r ph =
  r.phases <- ph :: r.phases;
  r.pos <- max r.pos ph.L.next

let closed r ?traced name secs =
  let c =
    L.closed ?traced r.ctx r.conns ~name ~first:r.pos ~window:r.spec.W.window ~seconds:secs
      ~cap:(int_of_float (r.spec.W.max_rate *. secs) + 1000)
      ~cpu_ns:(fun () -> Daemon.cpu_ns r.daemon)
  in
  add r c.L.cph;
  c

let open_loop r ?traced name secs =
  let o = L.open_loop ?traced r.ctx r.conns ~name ~first:r.pos ~rate:r.spec.W.rate ~seconds:secs in
  add r o.L.ph;
  r.pos <- r.pos + o.L.behind;
  o

(* The open-loop generator is behind its schedule when frames were left
   unsent or it was typically more than a millisecond late. *)
let on_schedule o = o.L.behind = 0 && Stats.median o.L.late_us <= 1000.0

(* --trace 0: closed-loop and open-loop slices alternate, 20% and 70% of
   the run in all, so each metric averages the host over the whole run
   rather than over one stretch of it: on a shared host whose speed
   drifts between states lasting seconds, that halves the run-to-run
   spread. *)
let slices = 6

let timed r ~setup_s : row list * bool =
  let pieces =
    List.init slices (fun i ->
        let c = closed r (Printf.sprintf "closed-%d" i) (0.2 *. r.seconds /. float_of_int slices) in
        (c, open_loop r (Printf.sprintf "open-%d" i) (0.7 *. r.seconds /. float_of_int slices)))
  in
  let rss = Daemon.peak_rss_mb r.daemon in
  let sum f = List.fold_left (fun acc (c, _) -> acc + f c) 0 pieces in
  let n = sum (fun c -> c.L.done_) in
  let rps = float_of_int n /. Clock.s_of_ns (sum (fun c -> c.L.elapsed_ns)) in
  let cpu = Clock.us_of_ns (sum (fun c -> c.L.cpu_ns)) /. float_of_int (max 1 n) in
  let opens = List.map snd pieces in
  let lat = Array.concat (List.map (fun o -> o.L.latency_us) opens) in
  let late = Array.concat (List.map (fun o -> o.L.late_us) opens) in
  let p99, blocks = block_p99 lat in
  ( [
      ("setup_s", setup_s, "s", Printf.sprintf "median of %d starts" setups);
      ( "throughput_rps", rps, "1/s",
        Printf.sprintf "closed loop, %d conns x window %d, n=%d" (Array.length r.conns)
          r.spec.W.window n );
      ( "latency_p50_us", Stats.quantile lat 0.5, "us",
        Printf.sprintf "open loop at %.0f/s, n=%d" r.spec.W.rate (Array.length lat) );
      ("latency_p99_us", p99, "us", Printf.sprintf "median over %d blocks of %d" blocks p99_block);
      ("cpu_us_per_req", cpu, "us", Printf.sprintf "closed loop, n=%d" n);
      ("peak_rss_mb", rss, "MiB", "VmHWM");
      ("loadgen.late_p99_us", Stats.quantile late 0.99, "us", "not in the result");
    ],
    List.for_all on_schedule opens )

(* The daemon's request.queue_wait_us buckets, from the metrics op. *)
let queue_wait_buckets r =
  let line = W.line_of (W.frame Api.Metrics_dump) 0 in
  match Check.decode ~id:0 (Daemon.rpc r.daemon.Daemon.socket line) with
  | Ok payload -> (
      match Json.member "body" payload with
      | Some (Json.String body) -> Layers.buckets ~family:"request_queue_wait_us" body
      | _ -> failwith "perfbench: metrics reply without a body")
  | Error _ -> failwith "perfbench: metrics op refused"

let refused_total r =
  let line = W.line_of (W.frame Api.Stats) 0 in
  match Check.decode ~id:0 (Daemon.rpc r.daemon.Daemon.socket line) with
  | Ok stats -> (
      match Json.member "rejected" stats with
      | Some (Json.Int n) -> n
      | _ -> failwith "perfbench: stats reply without \"rejected\"")
  | Error _ -> failwith "perfbench: stats op refused"

(* --trace 1. *)
let traced r ~jobs : row list * bool =
  (* Untraced and traced closed-loop slices alternate, so drift in the
     host or the cache state does not read as tracing overhead. *)
  let slice traced =
    (closed r ~traced (if traced then "closed-traced" else "closed-untraced") (0.05 *. r.seconds))
      .L.rps
  in
  let plain = ref 0.0 and with_spans = ref 0.0 in
  for _ = 1 to 3 do
    plain := !plain +. slice false;
    with_spans := !with_spans +. slice true
  done;
  let before = queue_wait_buckets r in
  let o = open_loop r ~traced:true "open-traced" (0.3 *. r.seconds) in
  let after = queue_wait_buckets r in
  (* Passes a (lockstep on the live daemon), b (embedded engine) and c
     (direct layer calls), frame by frame over one stretch of the stream,
     after b and c replay the warm-up. *)
  let layers = Layers.create r.spec ~jobs r.ctx.L.stream in
  for pos = 0 to r.spec.W.warmup - 1 do
    ignore (Layers.embedded layers pos);
    ignore (Layers.direct layers ~measured:false pos)
  done;
  let a_ns = Stats.Vec.create () and b_ns = Stats.Vec.create () and c_ns = Stats.Vec.create () in
  let lock =
    L.lockstep r.ctx r.daemon.Daemon.socket ~first:r.pos ~cap:2000 ~budget_s:(0.25 *. r.seconds)
      ~after:(fun id a ->
        Stats.Vec.push a_ns (float_of_int a);
        Stats.Vec.push b_ns (float_of_int (Layers.embedded layers id));
        Stats.Vec.push c_ns (float_of_int (Layers.direct layers ~measured:true id)))
  in
  add r lock;
  let c = Layers.finish layers in
  let refused = refused_total r in
  let a_ns = Stats.Vec.to_array a_ns and b_ns = Stats.Vec.to_array b_ns and c_ns = Stats.Vec.to_array c_ns in
  let diff_us x y = Array.mapi (fun k v -> (v -. y.(k)) /. 1e3) x in
  let bytes =
    Array.init (Array.length a_ns) (fun k -> float_of_int lock.L.bytes.(k))
  in
  let med = Stats.median and p99 a = Stats.quantile a 0.99 in
  let frames = Printf.sprintf "%d lockstep frames" (Array.length a_ns) in
  Spans.write (Printf.sprintf "%s/spans-%s-seed%d.jsonl" run_dir r.spec.W.name r.seed);
  ( [
      ("server.io_us_p50", med (diff_us a_ns b_ns), "us", frames);
      ("server.reply_bytes_p50", med bytes, "bytes", frames);
      ("engine.queue_wait_us_p50", Layers.delta_quantile ~before ~after 0.5, "us", "open loop");
      ("engine.queue_wait_us_p99", Layers.delta_quantile ~before ~after 0.99, "us", "open loop");
      ("engine.self_us_p50", med (diff_us b_ns c_ns), "us", frames);
      ("engine.refused", float_of_int refused, "count", "stats op");
      ("api.decode_us_p50", med c.Layers.decode_us, "us", "");
      ("api.encode_us_p50", med c.Layers.encode_us, "us", "");
      ("batch.fingerprint_us_p50", med c.Layers.fingerprint_us, "us", "");
      ("batch.hit_ratio", c.Layers.hit_ratio, "frac", "hits / problems");
      ("batch.shard_us_p50", med c.Layers.shard_us, "us", "");
      ("batch.assemble_us_p50", med c.Layers.assemble_us, "us", "");
      ("pool.queue_wait_us_p99", p99 c.Layers.pool_wait_us, "us", "");
      ("pool.completion_wait_us_p50", med c.Layers.completion_us, "us", "");
      ("pool.busy_frac", c.Layers.busy_frac, "frac", "");
      ("solve.chain_us_p50", med c.Layers.chain_us, "us", Printf.sprintf "n=%d" (Array.length c.Layers.chain_us));
      ("solve.spider_us_p50", med c.Layers.spider_us, "us", Printf.sprintf "n=%d" (Array.length c.Layers.spider_us));
      ("solve.fork_us_p50", med c.Layers.fork_us, "us", Printf.sprintf "n=%d" (Array.length c.Layers.fork_us));
      ("chain.ns_per_task_proc", med c.Layers.chain_ns_per_task_proc, "ns", "schedule solves");
      ("obs.sink_tax_frac", c.Layers.sink_tax_frac, "frac", "");
      ("loadgen.late_p99_us", p99 o.L.late_us, "us", "");
      ("trace.attributed_frac", Stats.sum c_ns /. Stats.sum a_ns, "frac", "pass c / pass a");
      ("trace.overhead_frac", 1.0 -. (!with_spans /. !plain), "frac", "closed loop");
    ],
    on_schedule o )

let tally_json (ph : L.phase) =
  let t = ph.L.t in
  Json.Obj
    [
      ("phase", Json.String ph.L.name);
      ("sent", Json.Int t.L.sent);
      ("ok", Json.Int t.L.ok);
      ("refused", Json.Int t.L.refused);
      ("errored", Json.Int t.L.errored);
      ("bad", Json.Int t.L.bad);
      ("missing", Json.Int t.L.missing);
    ]

let () =
  let msts, spec, seed, seconds, traced_run = args () in
  (* A daemon closing a socket must surface as EPIPE, not kill the run;
     an interrupted run still stops its daemons (Daemon's at_exit). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  if not (Sys.file_exists msts) then begin
    Printf.eprintf "perfbench: no daemon binary at %s\n" msts;
    exit 2
  end;
  (try Sys.mkdir run_dir 0o755 with Sys_error _ -> ());
  let jobs = if spec.W.jobs = 0 then nproc else spec.W.jobs in
  let self_test = Check.self_test () in
  let stream = W.stream spec seed in
  let ctx = { L.stream; keep = keeper spec seed stream; kept = []; notes = [] } in
  (* Several cold starts; the last daemon serves the run. *)
  let socket k = Printf.sprintf "%s/%s-%d-%d.sock" run_dir spec.W.name (Unix.getpid ()) k in
  let starts =
    List.init setups (fun k ->
        let d = Daemon.start ~msts ~socket:(socket k) ~jobs ~cache_size:spec.W.cache_size in
        if k < setups - 1 then ignore (Daemon.stop d);
        d)
  in
  let setup_s = Stats.median (Array.of_list (List.map Daemon.setup_s starts)) in
  let daemon = List.nth starts (setups - 1) in
  let conns = L.open_conns daemon.Daemon.socket (max 1 (min spec.W.conns nproc)) in
  let r = { spec; seed; seconds; ctx; daemon; conns; pos = 0; phases = [] } in
  add r (L.burst ctx conns ~name:"warmup" ~first:0 ~count:spec.W.warmup);
  let rows, valid = if traced_run then traced r ~jobs else timed r ~setup_s in
  let drain_n = if spec.W.kind = W.Batch then 8 else 64 in
  let drain, exit_code = L.drain_audit ctx conns daemon ~first:r.pos ~count:drain_n in
  add r drain;
  L.close_conns conns;
  let checked, deep_failures = deep_check ctx in
  let total = L.tally () in
  List.iter (fun ph -> L.add_into ~into:total ph.L.t) r.phases;
  let attempted = total.L.sent and failed = L.failed total in
  let correct =
    Result.is_ok self_test && total.L.bad = 0 && deep_failures = 0 && exit_code = Some 0
  in
  let failed_frac = float_of_int failed /. float_of_int attempted in
  let rows =
    if traced_run then rows
    else
      rows
      @ [
          ("ok_frac", 1.0 -. failed_frac, "frac", "");
          ("failed_frac", failed_frac, "frac", Printf.sprintf "%d of %d, not in the result" failed attempted);
        ]
  in
  let context =
    Json.Obj
      [
        ("workload", Json.String spec.W.name);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("traced", Json.Bool traced_run);
        ("nproc", Json.Int nproc);
        ("ocaml", Json.String Sys.ocaml_version);
        ("commit", Json.String (commit ()));
        ("rate_per_s", Json.Float spec.W.rate);
        ("window", Json.Int spec.W.window);
        ("connections", Json.Int (Array.length conns));
        ( "daemon",
          Json.Obj
            [
              ("jobs", Json.Int jobs);
              ("cache_size", Json.Int spec.W.cache_size);
              ("other_flags", Json.String "CLI defaults");
            ] );
        ("valid", Json.Bool valid);
        ("self_test", Json.String (match self_test with Ok _ -> "pass" | Error m -> m));
        ("deep_checked", Json.Int checked);
        ("deep_failures", Json.Int deep_failures);
        ("drain_exit", match exit_code with Some c -> Json.Int c | None -> Json.Null);
        ("phases", Json.List (List.rev_map tally_json r.phases));
        ( "rows",
          Json.Obj
            (List.map
               (fun (n, v, _, how) ->
                 (n, Json.Obj [ ("value", Json.Float (finite v)); ("how", Json.String how) ]))
               rows) );
        ("notes", Json.List (List.rev_map (fun m -> Json.String m) ctx.L.notes));
      ]
  in
  let record = Json.to_string context in
  Out_channel.with_open_text
    (Printf.sprintf "%s/run-%s-seed%d-trace%d.json" run_dir spec.W.name seed (Bool.to_int traced_run))
    (fun oc -> output_string oc (record ^ "\n"));
  prerr_endline record;
  if not valid then prerr_endline "perfbench: run INVALID: the open-loop generator fell behind its schedule";
  List.iter (fun m -> prerr_endline ("perfbench: " ^ m)) (List.rev ctx.L.notes);
  Printf.printf "%s seed %d (%s)%s\n" spec.W.name seed
    (if traced_run then "traced" else "timed")
    (if correct then "" else " CHECK FAILED");
  List.iter (fun (name, v, unit, how) -> Printf.printf "  %-28s %14.4f %-6s %s\n" name v unit how) rows;
  (* The result carries the end-to-end metrics (timed) or the per-layer
     ones (traced); the remaining rows are only printed. *)
  let in_result (name, _, _, _) =
    traced_run
    || not (List.mem name [ "loadgen.late_p99_us"; "failed_frac" ])
  in
  let metric (name, v, unit, _) =
    (name, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric (List.filter in_result rows)));
          ]));
  exit (if correct then 0 else 1)
