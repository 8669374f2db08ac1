(* Spans of the traced run, kept in memory and written out at the end.
   A span's [id] is the stream position (the request's correlation id),
   so the spans of one request line up across passes: [a] is the live
   daemon seen from the client, [b] the embedded engine, [c] the direct
   layer calls. *)

type t = { pass : string; name : string; id : int; start_ns : int; dur_ns : int }

let all : t list ref = ref []

let record ~pass ~id name ~start_ns ~dur_ns =
  all := { pass; name; id; start_ns; dur_ns } :: !all

let span ~pass ~id name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let dur_ns = Clock.now_ns () - t0 in
  record ~pass ~id name ~start_ns:t0 ~dur_ns;
  (r, dur_ns)

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"pass\":%S,\"name\":%S,\"id\":%d,\"start_ns\":%d,\"dur_ns\":%d}\n"
            s.pass s.name s.id s.start_ns s.dur_ns)
        (List.rev !all))
