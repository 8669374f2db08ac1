(* The traced run's in-process passes over frames a live daemon already
   answered: (b) the same frames through an embedded serve engine, no
   socket; (c) the same frames through each layer's public function, in
   the daemon's order, timed one call at a time.  Nothing under lib/ is
   instrumented: every span below is taken here, around a call. *)

module Api = Msts.Api
module Obs = Msts.Obs
module Engine = Msts_serve.Engine
module Vec = Stats.Vec

(* ---------- the daemon's sink ---------- *)

(* What [Msts_serve.Server.run] installs on its I/O domain: the engine's
   metrics sink teed with a post-mortem ring. *)
let daemon_sink engine =
  let ring = Obs.Ring.create ~capacity:1024 () in
  Obs.tee [ Engine.metrics_sink engine; Obs.Ring.sink ring ]

let without_sink f =
  let saved = Obs.current_sink () in
  Obs.set_sink None;
  Fun.protect ~finally:(fun () -> Obs.set_sink saved) f

let engine_config (spec : Workload.spec) ~jobs =
  { Engine.default_config with jobs; cache_capacity = spec.cache_size }

let strip line = String.sub line 0 (String.length line - 1)

(* The passes run frame by frame, interleaved with the lockstep pass on
   the live daemon, so all three see the same state of a shared host.
   Pass b's engine also lends its metrics sink to pass c: the daemon's tee
   stays installed on this domain throughout, as on the daemon's I/O
   domain. *)

type acc = {
  decode : Vec.t;
  encode : Vec.t;
  fingerprint : Vec.t;
  shard : Vec.t;
  assemble : Vec.t;
  pool_wait : Vec.t;
  completion : Vec.t;
  chain : Vec.t;
  spider : Vec.t;
  fork : Vec.t;
  per_task_proc : Vec.t;
  mutable busy_ns : int;
  mutable capacity_ns : int;
  mutable hits : int;
  mutable requests : int;
  mutable daemon_side_ns : int;
  mutable nosink_ns : int;
}

type t = {
  spec : Workload.spec;
  stream : Workload.stream;
  engine : Engine.t;  (** pass b *)
  jobs : int;
  cache : Msts.Batch.cache;  (** pass c *)
  pool : Msts.Pool.t;  (** pass c *)
  a : acc;
  mutable frames : int;
}

let create spec ~jobs stream =
  let engine = Engine.create (engine_config spec ~jobs) in
  Obs.set_sink (Some (daemon_sink engine));
  let pool = Msts.Pool.create ~jobs () in
  ignore (Msts.Pool.completion_fd pool);
  let v = Vec.create in
  {
    spec;
    stream;
    engine;
    jobs;
    cache = Msts.Batch.cache ~capacity:spec.Workload.cache_size;
    pool;
    frames = 0;
    a =
      {
        decode = v ();
        encode = v ();
        fingerprint = v ();
        shard = v ();
        assemble = v ();
        pool_wait = v ();
        completion = v ();
        chain = v ();
        spider = v ();
        fork = v ();
        per_task_proc = v ();
        busy_ns = 0;
        capacity_ns = 0;
        hits = 0;
        requests = 0;
        daemon_side_ns = 0;
        nosink_ns = 0;
      };
  }

(* ---------- pass b: embedded engine ---------- *)

(* One frame through [Engine.handle_line] and [Engine.dispatch], no
   socket; its latency in ns. *)
let embedded t pos =
  let engine = t.engine in
  let got = ref false in
  let line = strip (Workload.line t.stream pos) in
  let t0 = Clock.now_ns () in
  Engine.handle_line engine ~reply:(fun _ -> got := true) line;
  while not !got do
    if Engine.dispatch engine = 0 && (not !got) && Engine.inflight engine > 0 then
      ignore (Unix.select [ Engine.wakeup_fd engine ] [] [] 0.01)
  done;
  let ns = Clock.now_ns () - t0 in
  Spans.record ~pass:"b" ~id:pos "engine.request" ~start_ns:t0 ~dur_ns:ns;
  ns

(* ---------- pass c: direct layer calls ---------- *)

let kind_vec a (p : Api.problem) =
  match p.platform with
  | Msts.Platform_format.Chain_platform _ -> a.chain
  | Msts.Platform_format.Fork_platform _ -> a.fork
  | _ -> a.spider

let us ns = Clock.us_of_ns ns

(* Price the daemon's sink on one solve: timed where the daemon runs it
   (inline under its tee at jobs=1, on a worker domain with no sink
   otherwise) and with no sink at all, in alternating order. *)
let price_solve t ~first_nosink (p : Api.problem) =
  let a = t.a in
  let solve () = Clock.time (fun () -> Api.guarded_solve p) |> snd in
  let nosink () = without_sink solve in
  let daemon_side () = if t.jobs = 1 then solve () else nosink () in
  let no, side =
    if first_nosink then
      let no = nosink () in
      (no, daemon_side ())
    else
      let side = daemon_side () in
      (nosink (), side)
  in
  a.nosink_ns <- a.nosink_ns + no;
  a.daemon_side_ns <- a.daemon_side_ns + side;
  Vec.push (kind_vec a p) (us no);
  match (p.platform, p.tasks, p.deadline) with
  | Msts.Platform_format.Chain_platform c, Some n, None when n > 0 ->
      Vec.push a.per_task_proc (float_of_int no /. float_of_int (n * Msts.Chain.length c))
  | _ -> ()

(* The serve engine's solve path as layer calls: shard (fingerprints and
   cache probes), one pool ticket per distinct uncached problem, collect,
   assemble.  Adds the attributed time to [dispatch_ns]. *)
let solver t pool ~id ~measured ~dispatch_ns problems =
  let a = t.a in
  let plan, shard_ns =
    Spans.span ~pass:"c" ~id "batch.shard" (fun () -> Msts.Batch.shard ~cache:t.cache problems)
  in
  let k = Msts.Batch.shard_count plan in
  let jobs = Msts.Pool.jobs pool in
  let reqs = Array.init k (Msts.Batch.shard_request plan) in
  Array.iteri (fun j p -> price_solve t ~first_nosink:((t.frames + j) mod 2 = 0) p) reqs;
  let t_submit = Clock.now_ns () in
  let tickets =
    Array.map
      (fun p ->
        let submitted = Clock.now_ns () in
        Obs.Scope.with_scope (Obs.Scope.fresh ()) (fun () ->
            Msts.Pool.submit pool (fun () ->
                let picked = Clock.now_ns () in
                let o = Api.guarded_solve p in
                (o, submitted, picked, Clock.now_ns ()))))
      reqs
  in
  let solved = Array.make k (Error "pending") in
  let collected = Array.make k false in
  let wait_us = Array.make k 0 and busy_us = Array.make k 0 in
  let left = ref k in
  while !left > 0 do
    Array.iteri
      (fun slot ticket ->
        if not collected.(slot) then
          match Msts.Pool.poll ticket with
          | None -> ()
          | Some (Error e) -> raise e
          | Some (Ok (o, submitted, picked, finished)) ->
              let seen = Clock.now_ns () in
              solved.(slot) <- o;
              collected.(slot) <- true;
              decr left;
              Vec.push a.pool_wait (us (picked - submitted));
              Vec.push a.completion (us (seen - finished));
              a.busy_ns <- a.busy_ns + (finished - picked);
              wait_us.(slot) <- (picked - submitted) / 1000;
              busy_us.(slot) <- (finished - picked) / 1000)
      tickets;
    if !left > 0 then begin
      ignore (Unix.select [ Msts.Pool.completion_fd pool ] [] [] 0.01);
      ignore (Msts.Pool.drain_completions pool)
    end
  done;
  let wall = Clock.now_ns () - t_submit in
  Spans.record ~pass:"c" ~id "pool.dispatch" ~start_ns:t_submit ~dur_ns:wall;
  if k > 0 then a.capacity_ns <- a.capacity_ns + (jobs * wall);
  let (outcomes, stats), assemble_ns =
    Spans.span ~pass:"c" ~id "batch.assemble" (fun () ->
        Msts.Batch.assemble plan ~jobs ~solved ~wait_us ~busy_us)
  in
  Array.iter
    (fun p -> Vec.push a.fingerprint (us (snd (Clock.time (fun () -> Msts.Batch.fingerprint p)))))
    problems;
  if measured then begin
    Vec.push a.shard (us shard_ns);
    Vec.push a.assemble (us assemble_ns);
    a.hits <- a.hits + stats.Msts.Batch.cache_hits;
    a.requests <- a.requests + stats.Msts.Batch.requests
  end;
  dispatch_ns := !dispatch_ns + shard_ns + wall + assemble_ns;
  (outcomes, stats)

(* One frame through each layer in the daemon's order; the sum of the
   daemon's own steps (decode, shard, pool dispatch, assemble, encode) in
   ns.  The extra fingerprint and solve calls made to price those layers
   are not part of the sum. *)
let direct t ~measured pos =
  let pool = t.pool in
  let a = t.a and id = pos in
  let line = strip (Workload.line t.stream pos) in
  let request, decode_ns = Spans.span ~pass:"c" ~id "api.decode" (fun () -> Api.request_of_line line) in
  let request = match request with Ok r -> r | Error e -> failwith e.Api.message in
  let dispatch_ns = ref 0 in
  let reply =
    Api.exec ~cache_capacity:t.spec.Workload.cache_size
      ~solver:(solver t pool ~id ~measured ~dispatch_ns)
      request.Api.op
  in
  let _, encode_ns =
    Spans.span ~pass:"c" ~id "api.encode" (fun () ->
        Api.response_to_line
          {
            Api.id = request.Api.id;
            trace = request.Api.trace;
            result = Result.map Api.json_of_reply reply;
          })
  in
  if measured then begin
    Vec.push a.decode (us decode_ns);
    Vec.push a.encode (us encode_ns)
  end;
  t.frames <- t.frames + 1;
  decode_ns + !dispatch_ns + encode_ns

type summary = {
  decode_us : float array;
  encode_us : float array;
  fingerprint_us : float array;
  shard_us : float array;
  assemble_us : float array;
  pool_wait_us : float array;
  completion_us : float array;
  busy_frac : float;  (** worker time solving / (jobs x dispatch wall) *)
  hit_ratio : float;  (** cache hits / problems, measured solve frames *)
  chain_us : float array;
  spider_us : float array;
  fork_us : float array;
  chain_ns_per_task_proc : float array;
  sink_tax_frac : float;
}

let finish t =
  ignore (Engine.drain t.engine);
  Msts.Pool.shutdown t.pool;
  Obs.set_sink None;
  Engine.shutdown t.engine;
  let a = t.a and arr = Vec.to_array in
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  {
    decode_us = arr a.decode;
    encode_us = arr a.encode;
    fingerprint_us = arr a.fingerprint;
    shard_us = arr a.shard;
    assemble_us = arr a.assemble;
    pool_wait_us = arr a.pool_wait;
    completion_us = arr a.completion;
    busy_frac = ratio a.busy_ns a.capacity_ns;
    hit_ratio = ratio a.hits a.requests;
    chain_us = arr a.chain;
    spider_us = arr a.spider;
    fork_us = arr a.fork;
    chain_ns_per_task_proc = arr a.per_task_proc;
    sink_tax_frac = ratio a.daemon_side_ns a.nosink_ns -. 1.0;
  }

(* ---------- the daemon's queue-wait histogram ---------- *)

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* Per-bucket counts of one histogram family in a Prometheus text
   exposition, as (inclusive upper bound, count), ascending. *)
let buckets ~family text =
  let key = family ^ "_bucket{le=\"" in
  let cumulative =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           Option.bind (find_sub l key) (fun i ->
               let at = i + String.length key in
               try Scanf.sscanf (String.sub l at (String.length l - at)) "%d\"} %d" (fun u c -> Some (u, c))
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> None))
  in
  let prev = ref 0 in
  List.map
    (fun (u, c) ->
      let d = c - !prev in
      prev := c;
      (u, d))
    cumulative

(* Width of the log bucket ending at [upper]: exact below 32, then 16
   buckets per power of two (the layout of Msts.Obs.Histogram). *)
let bucket_width upper =
  let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
  if upper < 32 then 1 else 1 lsl (msb upper 0 - 4)

(* Quantile of the samples recorded between two scrapes, interpolated
   inside the bucket that holds it. *)
let delta_quantile ~before ~after q =
  let deltas =
    List.filter_map
      (fun (u, c) ->
        let d = c - Option.value ~default:0 (List.assoc_opt u before) in
        if d > 0 then Some (u, d) else None)
      after
  in
  let total = List.fold_left (fun acc (_, d) -> acc + d) 0 deltas in
  let rank = q *. float_of_int total in
  let rec walk seen = function
    | [] -> 0.0
    | (u, d) :: rest ->
        if float_of_int (seen + d) >= rank then
          let w = bucket_width u in
          float_of_int (u - w + 1)
          +. ((rank -. float_of_int seen) /. float_of_int d *. float_of_int w)
        else walk (seen + d) rest
  in
  walk 0 deltas
