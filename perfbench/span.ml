(* In-memory spans recorded by the benchmark around its calls into each
   layer: name, start, end, parent span and request id.  Written out once,
   when the run ends. *)

type t = { id : int; name : string; req : int; parent : int; t0 : int; t1 : int }

let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let request = ref (-1)

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Stat.now_ns () in
  let finish () =
    recorded := { id; name; req = !request; parent; t0; t1 = Stat.now_ns () } :: !recorded;
    stack := List.tl !stack
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Self time per span name, in ns: each span's duration minus the part
   its children cover. *)
let self_ns () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      Hashtbl.replace self s.name (own + Option.value ~default:0 (Hashtbl.find_opt self s.name)))
    !recorded;
  self

(* Summed wall time of every span named [name], in ns. *)
let total_ns name =
  List.fold_left (fun acc s -> if s.name = name then acc + (s.t1 - s.t0) else acc) 0 !recorded

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let open Obs.Json in
      to_channel oc
        (List
           (List.rev_map
              (fun s ->
                Obj
                  [ ("id", Int s.id); ("name", String s.name); ("req", Int s.req);
                    ("parent", Int s.parent); ("start_ns", Int s.t0); ("end_ns", Int s.t1) ])
              !recorded)))
