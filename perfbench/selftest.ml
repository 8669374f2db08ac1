(* Generator and checker self-tests: the same seed gives a byte-identical
   frame stream, another seed a different one, serve-cold never repeats a
   fingerprint, and a reply with one date altered fails the check. *)

module W = Perfbench.Workload

let lines spec seed n =
  let s = W.stream spec seed in
  String.concat "" (List.init n (W.line s))

let () =
  List.iter
    (fun spec ->
      let n = if spec.W.kind = W.Batch then 200 else 2000 in
      let a = lines spec 1 n and b = lines spec 1 n and c = lines spec 2 n in
      if a <> b then failwith (spec.W.name ^ ": same seed, different frames");
      if a = c then failwith (spec.W.name ^ ": different seeds, same frames");
      (* The id splice is the encoder's own output. *)
      let s = W.stream spec 3 in
      List.iter
        (fun i ->
          let want = Msts.Api.request_to_line { Msts.Api.id = Some i; trace = None; op = (W.get s i).W.op } in
          if W.line s i <> want then failwith (spec.W.name ^ ": frame differs from the encoder's"))
        [ 0; 1; 57; 999 ])
    W.specs;
  let cold = Option.get (W.find "serve-cold") in
  let s = W.stream cold 5 in
  let seen = Hashtbl.create 8192 in
  for i = 0 to 4999 do
    let k = W.fingerprint_of_op (W.get s i).W.op in
    if Hashtbl.mem seen k then failwith "serve-cold repeated a fingerprint";
    Hashtbl.add seen k ()
  done;
  match Perfbench.Check.self_test () with
  | Ok rejections ->
      List.iter (fun m -> Printf.printf "altered reply rejected: %s\n" m) rejections;
      print_endline "perfbench self-test: ok"
  | Error m -> failwith m
