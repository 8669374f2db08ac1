(* Reply checks.  [classify] runs on every reply: it decodes the frame,
   checks the echoed id and the payload's shape against the request.
   [deep] runs on a seeded sample after the timed window: it rebuilds the
   plan from the reply's entries, audits it with the Definition-1 checker
   and compares it with an in-process reference solve. *)

module Api = Msts.Api
module Json = Msts.Json
module Plan = Msts.Plan
module Pf = Msts.Platform_format

type verdict =
  | Ok_reply
  | Refused of string  (** overloaded, timeout or shutting_down *)
  | Errored of string  (** any other error code *)
  | Bad of string  (** a reply that is not the right answer's shape *)

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let int_member name json =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | _ -> fail "missing integer %S" name

let list_member name json =
  match Json.member name json with
  | Some (Json.List l) -> Ok l
  | _ -> fail "missing list %S" name

let string_member name json =
  match Json.member name json with
  | Some (Json.String s) -> Ok s
  | _ -> fail "missing string %S" name

let expect what got want =
  if got = want then Ok () else fail "%s: got %d, expected %d" what got want

let plan_kind (p : Api.problem) =
  match p.platform with Pf.Chain_platform _ -> "chain" | _ -> "spider"

let platform_kind (p : Api.problem) =
  match p.platform with
  | Pf.Chain_platform _ -> "chain"
  | Pf.Fork_platform _ -> "fork"
  | Pf.Spider_platform _ -> "spider"
  | Pf.Tree_platform _ -> "tree"

let check_kind p payload =
  let* kind = string_member "kind" payload in
  if kind = plan_kind p then Ok ()
  else fail "kind %S for a %s platform" kind (platform_kind p)

let opt_int = function Some i -> i | None -> -1

let shape (op : Api.op) payload =
  match op with
  | Api.Ping ->
      let* v = int_member "version" payload in
      expect "version" v Api.version
  | Api.Schedule p ->
      let* () = check_kind p payload in
      let* tasks = int_member "tasks" payload in
      let* entries = list_member "entries" payload in
      let* () = expect "tasks" tasks (opt_int p.tasks) in
      expect "entries" (List.length entries) tasks
  | Api.Deadline p ->
      let* () = check_kind p payload in
      let* d = int_member "deadline" payload in
      let* tasks = int_member "tasks" payload in
      let* makespan = int_member "makespan" payload in
      let* entries = list_member "entries" payload in
      let* () = expect "deadline" d (opt_int p.deadline) in
      let* () = expect "entries" (List.length entries) tasks in
      if makespan <= d then Ok () else fail "makespan %d past deadline %d" makespan d
  | Api.Metrics p ->
      let* () = check_kind p payload in
      let* tasks = int_member "tasks" payload in
      let* _ = int_member "makespan" payload in
      expect "tasks" tasks (opt_int p.tasks)
  | Api.Batch ps ->
      let* n = int_member "instances" payload in
      let* results = list_member "results" payload in
      let* () = expect "instances" n (Array.length ps) in
      let* () = expect "results" (List.length results) n in
      List.fold_left
        (fun acc r ->
          let* i = acc in
          let* inst = int_member "instance" r in
          let* () = expect "instance" inst (i + 1) in
          let* _ = int_member "makespan" r in
          let* _ = int_member "tasks" r in
          Ok (i + 1))
        (Ok 0) results
      |> Result.map ignore
  | _ -> fail "unexpected operation %s" (Api.op_name op)

let refusal = function
  | Api.Overloaded | Api.Timeout | Api.Shutting_down -> true
  | _ -> false

let decode ~id line =
  match Api.response_of_line line with
  | Error e -> Error (Bad ("undecodable reply: " ^ e.Api.message))
  | Ok r when r.Api.id <> Some id ->
      Error (Bad (Printf.sprintf "reply id %d for request %d" (opt_int r.Api.id) id))
  | Ok { Api.result = Error e; _ } ->
      let msg = Api.error_code_to_string e.Api.code ^ ": " ^ e.Api.message in
      Error (if refusal e.Api.code then Refused msg else Errored msg)
  | Ok { Api.result = Ok payload; _ } -> Ok payload

let classify op ~id line =
  match decode ~id line with
  | Error v -> v
  | Ok payload -> (
      match shape op payload with Ok () -> Ok_reply | Error m -> Bad m)

(* ---------- deep check ---------- *)

let int_list name json =
  let* l = list_member name json in
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      match x with Json.Int i -> Ok (i :: acc) | _ -> fail "non-integer in %S" name)
    l (Ok [])

(* Rebuild the plan the reply describes, on the request's platform. *)
let plan_of_reply (p : Api.problem) payload =
  let* entries = list_member "entries" payload in
  let* rows =
    List.fold_right
      (fun e acc ->
        let* acc = acc in
        let* start = int_member "start" e in
        let* comms = int_list "comms" e in
        Ok ((e, start, Array.of_list comms) :: acc))
      entries (Ok [])
  in
  try
    match p.platform with
    | Pf.Chain_platform chain ->
        let* es =
          List.fold_right
            (fun (e, start, comms) acc ->
              let* acc = acc in
              let* proc = int_member "proc" e in
              Ok ({ Msts.Schedule.proc; start; comms } :: acc))
            rows (Ok [])
        in
        Ok (Plan.Chain (Msts.Schedule.make chain (Array.of_list es)))
    | _ ->
        let* spider = Msts.Solve.as_spider p.platform in
        let* es =
          List.fold_right
            (fun (e, start, comms) acc ->
              let* acc = acc in
              let* leg = int_member "leg" e in
              let* depth = int_member "depth" e in
              Ok
                ({ Msts.Spider_schedule.address = { Msts.Spider.leg; depth }; start; comms }
                :: acc))
            rows (Ok [])
        in
        Ok (Plan.Spider (Msts.Spider_schedule.make spider (Array.of_list es)))
  with Invalid_argument m -> fail "plan does not fit the platform: %s" m

let reference p =
  match Msts.Solve.solve p with
  | Ok plan -> Ok plan
  | Error m -> fail "reference solve refused: %s" m

let same_numbers what payload plan =
  let* tasks = int_member "tasks" payload in
  let* makespan = int_member "makespan" payload in
  let* () = expect (what ^ " tasks") tasks (Plan.task_count plan) in
  expect (what ^ " makespan") makespan (Plan.makespan plan)

let audit_plan p payload =
  let* plan = plan_of_reply p payload in
  let* () =
    match Plan.check plan with
    | [] -> Ok ()
    | v :: _ -> fail "Definition 1 violated: %s" v
  in
  let* () = same_numbers "reply vs its own entries" payload plan in
  let* ref_plan = reference p in
  let* () = same_numbers "reply vs reference" payload ref_plan in
  if Plan.equal plan ref_plan then Ok () else fail "plan differs from the reference plan"

let deep (op : Api.op) payload =
  match op with
  | Api.Schedule p | Api.Deadline p -> audit_plan p payload
  | Api.Metrics p ->
      let* ref_plan = reference p in
      same_numbers "metrics vs reference" payload ref_plan
  | Api.Batch ps ->
      let* results = list_member "results" payload in
      List.fold_left
        (fun acc r ->
          let* i = acc in
          let* ref_plan = reference ps.(i) in
          let* () = same_numbers (Printf.sprintf "batch instance %d" (i + 1)) r ref_plan in
          Ok (i + 1))
        (Ok 0) results
      |> Result.map ignore
  | _ -> Ok ()

let deep_line op ~id line =
  match decode ~id line with
  | Error (Bad m | Refused m | Errored m) -> Error m
  | Error Ok_reply -> Ok ()
  | Ok payload ->
      let* () = shape op payload in
      deep op payload

(* ---------- mutation self-test ---------- *)

(* The reply line with the start date of entry [k] moved by [delta]. *)
let alter_date ~k ~delta line =
  let bump = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (key, v) ->
               match (key, v) with
               | "start", Json.Int s -> (key, Json.Int (s + delta))
               | _ -> (key, v))
             kvs)
    | j -> j
  in
  match Api.response_of_line line with
  | Ok ({ Api.result = Ok (Json.Obj kvs); _ } as r) ->
      let kvs =
        List.map
          (fun (key, v) ->
            match (key, v) with
            | "entries", Json.List es ->
                (key, Json.List (List.mapi (fun i e -> if i = k then bump e else e) es))
            | _ -> (key, v))
          kvs
      in
      Api.response_to_line { r with Api.result = Ok (Json.Obj kvs) }
  | _ -> invalid_arg "alter_date: not a plan reply"

(* A genuine reply for a seeded chain schedule passes [deep_line]; the
   same reply with one date moved either way is rejected.  Returns the
   rejection messages. *)
let self_test () =
  let rng = Msts.Prng.create 7 in
  let chain = Msts.Generator.chain rng Msts.Generator.default_profile ~p:6 in
  let op = Api.Schedule (Msts.Solve.problem ~tasks:30 (Pf.Chain_platform chain)) in
  let request = { Api.id = Some 1; trace = None; op } in
  let line = Api.response_to_line (Api.respond ~solver:Api.direct_solver request) in
  let* () = deep_line op ~id:1 line in
  List.fold_left
    (fun acc delta ->
      let* msgs = acc in
      match deep_line op ~id:1 (alter_date ~k:10 ~delta line) with
      | Ok () -> fail "a reply with task 11's date moved by %d passed the check" delta
      | Error m -> Ok (m :: msgs))
    (Ok []) [ -1; 1 ]
