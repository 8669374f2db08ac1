module Chain = Msts_platform.Chain
module Comm_vector = Msts_schedule.Comm_vector
module Schedule = Msts_schedule.Schedule
module Obs = Msts_obs.Obs

type state = { hull : int array; occupancy : int array }

let initial_state chain ~horizon =
  let p = Chain.length chain in
  { hull = Array.make p horizon; occupancy = Array.make p horizon }

let copy_state st =
  { hull = Array.copy st.hull; occupancy = Array.copy st.occupancy }

let candidate chain st k =
  let v = Array.make k 0 in
  v.(k - 1) <-
    min
      (st.occupancy.(k - 1) - Chain.work chain k - Chain.latency chain k)
      (st.hull.(k - 1) - Chain.latency chain k);
  for j = k - 1 downto 1 do
    v.(j - 1) <-
      min (v.(j) - Chain.latency chain j) (st.hull.(j - 1) - Chain.latency chain j)
  done;
  v

let candidates chain st =
  let p = Chain.length chain in
  Obs.count ~n:p "chain.candidate_scans";
  Array.init p (fun idx -> candidate chain st (idx + 1))

let select cands =
  if Array.length cands = 0 then invalid_arg "Algorithm.select: no candidates";
  let best = ref 0 in
  for idx = 1 to Array.length cands - 1 do
    if Comm_vector.precedes cands.(!best) cands.(idx) then best := idx
  done;
  !best

type step = {
  task : int;
  chosen_proc : int;
  chosen_vector : Comm_vector.t;
  start : int;
  all_candidates : Comm_vector.t array;
  state_before : state;
}

(* Commit a candidate-scan decision: the state mutation and counters of
   [Kernel.commit], for a vector the caller already holds. *)
let commit_candidate chain st ~proc vector =
  let start = st.occupancy.(proc - 1) - Chain.work chain proc in
  st.occupancy.(proc - 1) <- start;
  Array.blit vector 0 st.hull 0 proc;
  Obs.count "chain.tasks_placed";
  Obs.count ~n:proc "chain.hull_updates";
  start

let place chain st ~task =
  let state_before = copy_state st in
  let all_candidates = candidates chain st in
  let chosen_proc = select all_candidates + 1 in
  let chosen_vector = all_candidates.(chosen_proc - 1) in
  let start = commit_candidate chain st ~proc:chosen_proc chosen_vector in
  { task; chosen_proc; chosen_vector; start; all_candidates; state_before }

let horizon = Chain.master_only_makespan

(* The backward loop every full construction shares: [place st ~task]
   decides task [task], mutates the state and returns its entry. *)
let construct chain n place =
  if n < 0 then invalid_arg "Algorithm.schedule: negative task count";
  Obs.span "chain.schedule" ~args:[ ("n", string_of_int n) ] @@ fun () ->
  let st = initial_state chain ~horizon:(horizon chain n) in
  let entries = Array.make n { Schedule.proc = 1; start = 0; comms = [| 0 |] } in
  for task = n downto 1 do
    entries.(task - 1) <- place st ~task
  done;
  Schedule.normalise (Schedule.make chain entries)

let schedule ?on_step chain n =
  let sc = Kernel.scratch () in
  let sweep st = Kernel.sweep chain ~hull:st.hull ~occupancy:st.occupancy sc in
  let commit st ~proc =
    Kernel.commit chain ~hull:st.hull ~occupancy:st.occupancy sc ~proc
  in
  match on_step with
  | None ->
      construct chain n (fun st ~task:_ ->
          let proc = sweep st in
          let comms = Kernel.chosen_vector sc ~proc in
          { Schedule.proc; start = commit st ~proc; comms })
  | Some observe ->
      (* The observer gets what the candidate scan would show (every
         candidate and the state before the placement), recomputed without
         counting it as a scan, beside the decision the kernel took. *)
      let p = Chain.length chain in
      construct chain n (fun st ~task ->
          let state_before = copy_state st in
          let all_candidates = Array.init p (fun idx -> candidate chain st (idx + 1)) in
          let chosen_proc = sweep st in
          let chosen_vector = Kernel.chosen_vector sc ~proc:chosen_proc in
          let start = commit st ~proc:chosen_proc in
          observe
            { task; chosen_proc; chosen_vector; start; all_candidates; state_before };
          { Schedule.proc = chosen_proc; start; comms = chosen_vector })

let schedule_with_selector ~select chain n =
  construct chain n (fun st ~task:_ ->
      let cands = candidates chain st in
      let proc = select cands + 1 in
      let comms = cands.(proc - 1) in
      { Schedule.proc; start = commit_candidate chain st ~proc comms; comms })

let makespan chain n =
  if n = 0 then 0
  else begin
    Obs.span "chain.makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    (* The last-placed (first-emitted) task fixes the shift; task n always
       finishes exactly at the horizon. *)
    let st = initial_state chain ~horizon:(horizon chain n) in
    let sc = Kernel.scratch () in
    for _ = n downto 1 do
      let proc = Kernel.sweep chain ~hull:st.hull ~occupancy:st.occupancy sc in
      let (_ : int) =
        Kernel.commit chain ~hull:st.hull ~occupancy:st.occupancy sc ~proc
      in
      ()
    done;
    horizon chain n - Kernel.first_emission sc
  end
