(* The three serve workloads: daemon configuration, traffic shape and a
   seeded frame stream.  The daemon only ever receives frames produced
   here; position [i] of a stream is sent with correlation id [i]. *)

module Api = Msts.Api
module Prng = Msts.Prng
module Gen = Msts.Generator
module Pf = Msts.Platform_format

type kind = Hot | Cold | Batch

type spec = {
  kind : kind;
  name : string;
  jobs : int;  (** daemon [--jobs]; 0 stands for the host's core count *)
  cache_size : int;  (** daemon [--cache-size] *)
  conns : int;  (** client connections (capped at the core count) *)
  window : int;  (** closed-loop frames outstanding per connection *)
  rate : float;
      (** open-loop frames per second: at most 40% of saturated
          throughput on a 2-core host, low enough that a slow spell of a
          shared host does not push the daemon into a growing backlog *)
  warmup : int;  (** leading stream positions sent before any timing *)
  max_rate : float;
      (** frames per second pre-generated per measured second: an upper
          bound on saturated throughput, so generation never runs inside
          a timed window *)
}

(* Why three workloads: serve-hot keeps the solver and the pool idle and
   leaves codec, engine and socket as the whole per-request cost;
   serve-cold makes the solver (and, with jobs=1, the daemon's telemetry
   sink wrapped around it) dominate and only ever inserts into the cache;
   serve-batch is the only one that uses pool parallelism, batch sharding,
   LRU eviction and waiting for the slowest shard, and it bypasses the
   sink because worker domains run without one. *)
let specs =
  [
    {
      kind = Hot;
      name = "serve-hot";
      jobs = 1;
      cache_size = 256;
      conns = 2;
      window = 8;
      rate = 4000.0;
      warmup = 40;
      max_rate = 80000.0;
    };
    {
      kind = Cold;
      name = "serve-cold";
      jobs = 1;
      cache_size = 256;
      conns = 2;
      window = 2;
      rate = 120.0;
      warmup = 32;
      max_rate = 1500.0;
    };
    {
      kind = Batch;
      name = "serve-batch";
      jobs = 0;
      cache_size = 256;
      conns = 2;
      window = 2;
      rate = 160.0;
      warmup = 64;
      max_rate = 1500.0;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(** Frames per batch request on serve-batch. *)
let batch_size = 32

(** Distinct problems in serve-batch's pool: four times the cache. *)
let batch_pool = 1024

(** Distinct problems in serve-hot's pool, far below the cache size. *)
let hot_pool = 40

(* ---------- frames ---------- *)

type frame = { op : Api.op; body : string }
(** A request without its id: [body] is the encoded frame after the
    leading ["{\"v\":1,"], so the line for id [i] is one concatenation. *)

let envelope = Printf.sprintf "{\"v\":%d," Api.version

let frame op =
  let line = Api.request_to_line { Api.id = None; trace = None; op } in
  let n = String.length envelope in
  if not (String.starts_with ~prefix:envelope line) then
    invalid_arg "perfbench: unexpected request encoding";
  { op; body = String.sub line n (String.length line - n) }

let line_of f id = envelope ^ "\"id\":" ^ string_of_int id ^ "," ^ f.body

(* ---------- problem generators ---------- *)

let profile = Gen.default_profile

let platform rng = function
  | `Chain p -> Pf.Chain_platform (Gen.chain rng profile ~p)
  | `Fork slaves -> Pf.Fork_platform (Gen.fork rng profile ~slaves)
  | `Spider (legs, max_depth) ->
      Pf.Spider_platform (Gen.spider rng profile ~legs ~max_depth)

(* Stratified draws.  Point k of the R3 additive recurrence (increments
   1/g, 1/g^2, 1/g^3 with g^4 = g + 1), shifted by a seeded offset, fills
   the unit cube evenly over any prefix of the stream, so the sizes drawn
   on the three axes are spread evenly and independently of each other.
   Sizes and the kind/operation mix are drawn this way so that every seed
   offers the same spread of work; only the platforms' latencies and work
   times vary. *)
let r3 = [| 0.8191725133961645; 0.6710436067037893; 0.5497004779019703 |]

let strata rng =
  let offsets = Array.map (fun _ -> Prng.float rng 1.0) r3 in
  fun ~axis k (lo, hi) ->
    let u = Float.rem (offsets.(axis) +. (float_of_int k *. r3.(axis))) 1.0 in
    lo + min (hi - lo) (int_of_float (u *. float_of_int (hi - lo + 1)))

(* A deadline that fits about [n] tasks: the platform's makespan lower
   bound for [n] tasks.  A deadline problem's work then follows the
   stratified task count instead of the platform's random speeds, which
   would otherwise make the heaviest frames, and so the latency tail,
   differ from seed to seed. *)
let deadline_for pf n =
  match pf with
  | Pf.Chain_platform c -> Msts.Bounds.combined_bound c n
  | _ -> (
      match Msts.Solve.as_spider pf with
      | Ok s -> Msts.Bounds.spider_combined_bound s n
      | Error m -> invalid_arg m)

(* The k-th problem of one (shape, operation) class, for about [tasks]
   tasks whatever the operation. *)
let problem rng ~pick ~k ~op ~shape ~tasks =
  let pf = platform rng shape in
  let n = pick ~axis:0 k tasks in
  match op with
  | 0 -> Api.Schedule (Msts.Solve.problem ~tasks:n pf)
  | 1 -> Api.Deadline (Msts.Solve.problem ~deadline:(deadline_for pf n) pf)
  | _ -> Api.Metrics (Msts.Solve.problem ~tasks:n pf)

let problem_of_op = function
  | Api.Schedule p | Api.Deadline p | Api.Metrics p -> Some p
  | _ -> None

(* A stratified stream of problems: position i takes class [i mod
   classes] of a per-block seeded shuffle, so each block of [classes]
   frames holds every (shape, operation) class once. *)
let classes_stream rng ~classes ~draw =
  let pick = strata rng in
  let counts = Array.make classes 0 in
  let block = Array.init classes Fun.id in
  let i = ref 0 in
  fun () ->
    if !i mod classes = 0 then Prng.shuffle rng block;
    let c = block.(!i mod classes) in
    incr i;
    let k = counts.(c) in
    counts.(c) <- k + 1;
    draw rng ~pick ~k c

(* serve-hot: p <= 4 processors everywhere; 9 classes (3 shapes x 3
   operations). *)
let hot_problem rng ~pick ~k c =
  let shape =
    match c / 3 with
    | 0 -> `Chain (pick ~axis:1 k (2, 4))
    | 1 -> `Fork (pick ~axis:1 k (2, 3))
    | _ -> `Spider (2, 2)
  in
  problem rng ~pick ~k ~op:(c mod 3) ~shape ~tasks:(4, 12)

(* serve-cold: 10 classes in the ratio chains 4 : spiders 3 : forks 3.
   Chains p 8-32 with n 100-400, spiders 3-5 legs of depth <= 3 with
   n 50-200, forks of 4-12 slaves with n 50-200. *)
let cold_problem rng ~pick ~k c =
  let op = c mod 3 in
  if c < 4 then
    problem rng ~pick ~k ~op ~shape:(`Chain (pick ~axis:1 k (8, 32))) ~tasks:(100, 400)
  else if c < 7 then
    problem rng ~pick ~k ~op
      ~shape:(`Spider (pick ~axis:1 k (3, 5), pick ~axis:2 k (1, 3)))
      ~tasks:(50, 200)
  else
    problem rng ~pick ~k ~op ~shape:(`Fork (pick ~axis:1 k (4, 12))) ~tasks:(50, 200)

(* serve-batch pool entries: moderate sizes, makespan-only replies. *)
let batch_problem rng =
  let shape =
    match Prng.int rng 3 with
    | 0 -> `Chain (Prng.int_in rng 4 12)
    | 1 -> `Fork (Prng.int_in rng 3 8)
    | _ -> `Spider (Prng.int_in rng 2 4, Prng.int_in rng 1 2)
  in
  let pf = platform rng shape in
  let n = Prng.int_in rng 20 80 in
  if Prng.int rng 5 = 0 then Msts.Solve.problem ~deadline:(deadline_for pf n) pf
  else Msts.Solve.problem ~tasks:n pf

(* Draw problems until [count] distinct fingerprints are collected. *)
let distinct rng count draw key =
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  while Hashtbl.length seen < count do
    let x = draw rng in
    let k = key x in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := x :: !out
    end
  done;
  Array.of_list (List.rev !out)

let fingerprint_of_op op =
  match problem_of_op op with
  | Some p -> Msts.Batch.fingerprint p
  | None -> Api.op_name op

(* ---------- streams ---------- *)

type stream = {
  spec : spec;
  next : unit -> frame;
  mutable frames : frame array;
  mutable len : int;
}

let ping = frame Api.Ping

let generator spec seed =
  let rng = Prng.create seed in
  match spec.kind with
  | Hot ->
      (* The warm-up sends every pool entry once; afterwards a uniform
         pick, with one frame in eight a ping. *)
      let draw = classes_stream rng ~classes:9 ~draw:hot_problem in
      let pool =
        Array.map frame
          (distinct rng hot_pool (fun _ -> draw ()) (fun op ->
               Api.op_name op ^ fingerprint_of_op op))
      in
      let k = ref 0 in
      fun () ->
        let i = !k in
        incr k;
        if i < Array.length pool then pool.(i)
        else if Prng.int rng 8 = 0 then ping
        else Prng.choice rng pool
  | Cold ->
      (* Never two frames with one fingerprint in a run. *)
      let seen = Hashtbl.create 4096 in
      let draw = classes_stream rng ~classes:10 ~draw:cold_problem in
      let rec next () =
        let op = draw () in
        let k = fingerprint_of_op op in
        if Hashtbl.mem seen k then next ()
        else begin
          Hashtbl.add seen k ();
          frame op
        end
      in
      next
  | Batch ->
      (* Half the draws come from a hot eighth of the pool, so a frame
         mixes in-frame duplicates, LRU hits, misses and evictions. *)
      let pool = distinct rng batch_pool batch_problem Msts.Batch.fingerprint in
      let hot = batch_pool / 8 in
      fun () ->
        frame
          (Api.Batch
             (Array.init batch_size (fun _ ->
                  if Prng.bool rng then pool.(Prng.int rng hot)
                  else Prng.choice rng pool)))

let stream spec seed =
  { spec; next = generator spec seed; frames = [||]; len = 0 }

(* Generate positions up to [n - 1] (streams are extended in order, so a
   position's frame never depends on how far the stream was read). *)
let ensure s n =
  if n > Array.length s.frames then begin
    let bigger = Array.make (max n (2 * Array.length s.frames)) ping in
    Array.blit s.frames 0 bigger 0 s.len;
    s.frames <- bigger
  end;
  while s.len < n do
    s.frames.(s.len) <- s.next ();
    s.len <- s.len + 1
  done

let get s i =
  ensure s (i + 1);
  s.frames.(i)

let line s i = line_of (get s i) i
