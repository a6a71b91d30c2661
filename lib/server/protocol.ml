(* See protocol.mli. *)

type addr = Unix_sock of string | Tcp of string * int

(* Bumped when the wire protocol changes shape; echoed by [ping],
   [stats] and [metrics] so clients can check what they are talking
   to. *)
let version = 2

let pp_addr ppf = function
  | Unix_sock path -> Fmt.pf ppf "unix:%s" path
  | Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let default_max_frame = 1 lsl 20
let max_wire_depth = 64

exception Closed

(* Unix.read can return short; loop until [len] bytes or EOF. *)
let really_read fd buf ofs len =
  let rec go ofs remaining =
    if remaining > 0 then begin
      let n = Unix.read fd buf ofs remaining in
      if n = 0 then raise Closed;
      go (ofs + n) (remaining - n)
    end
  in
  go ofs len

let really_write fd buf ofs len =
  let rec go ofs remaining =
    if remaining > 0 then begin
      let n = Unix.write fd buf ofs remaining in
      go (ofs + n) (remaining - n)
    end
  in
  go ofs len

let read_length fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  (Char.code (Bytes.get hdr 0) lsl 24)
  lor (Char.code (Bytes.get hdr 1) lsl 16)
  lor (Char.code (Bytes.get hdr 2) lsl 8)
  lor Char.code (Bytes.get hdr 3)

(* Discard [len] payload bytes so the next frame starts where the length
   prefix says it does: an oversized frame costs an error response, not
   the connection. *)
let drain fd len =
  let chunk = Bytes.create 8192 in
  let rec go remaining =
    if remaining > 0 then begin
      let n = Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) in
      if n = 0 then raise Closed;
      go (remaining - n)
    end
  in
  go len

let read_frame ?(max_bytes = default_max_frame) fd =
  let len = read_length fd in
  if len > max_bytes then begin
    drain fd len;
    Error (`Too_large len)
  end
  else begin
    let buf = Bytes.create len in
    really_read fd buf 0 len;
    Ok (Bytes.unsafe_to_string buf)
  end

let write_frame fd payload =
  let len = String.length payload in
  let msg = Bytes.create (4 + len) in
  Bytes.set msg 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set msg 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set msg 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set msg 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 msg 4 len;
  really_write fd msg 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  id : Obs.Json.t;
  meth : string;
  params : Obs.Json.t;
  want_meta : bool;
}

let request_of_json j =
  let open Obs.Json in
  match j with
  | Obj kvs -> (
    let known = [ "id"; "method"; "params"; "meta" ] in
    match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
    | Some (k, _) -> Error (Printf.sprintf "unknown request field %S" k)
    | None -> (
      match List.assoc_opt "method" kvs with
      | Some (String meth) when meth <> "" -> (
        let id = Option.value ~default:Null (List.assoc_opt "id" kvs) in
        let params = Option.value ~default:(Obj []) (List.assoc_opt "params" kvs) in
        match params, List.assoc_opt "meta" kvs with
        | Obj _, (None | Some (Bool _)) ->
          let want_meta =
            match List.assoc_opt "meta" kvs with
            | Some (Bool b) -> b
            | _ -> false
          in
          Ok { id; meth; params; want_meta }
        | Obj _, Some _ -> Error "request field \"meta\" must be a boolean"
        | _, _ -> Error "request field \"params\" must be an object")
      | Some _ -> Error "request field \"method\" must be a non-empty string"
      | None -> Error "request is missing field \"method\""))
  | _ -> Error "request must be a JSON object"

let request_to_json r =
  let open Obs.Json in
  Obj
    ([ ("id", r.id); ("method", String r.meth); ("params", r.params) ]
    @ if r.want_meta then [ ("meta", Bool true) ] else [])

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let envelope ?meta ~id ~trace_id ~status rest =
  let open Obs.Json in
  Obj
    ([ ("id", id); ("trace_id", String trace_id); ("status", String status) ]
    @ rest
    @ match meta with None -> [] | Some m -> [ ("meta", m) ])

let ok_response ?meta ~id ~trace_id result =
  envelope ?meta ~id ~trace_id ~status:"ok" [ ("result", result) ]

let error_response ?meta ~id ~trace_id ~code ~message () =
  envelope ?meta ~id ~trace_id ~status:"error"
    [
      ( "error",
        Obs.Json.Obj
          [ ("code", Obs.Json.String code); ("message", Obs.Json.String message) ]
      );
    ]

let exhausted_response ?meta ~id ~trace_id e =
  envelope ?meta ~id ~trace_id ~status:"exhausted"
    [ ("exhausted", Sws.Engine.exhausted_to_json e) ]

let err_parse = "parse_error"
let err_bad_request = "bad_request"
let err_too_large = "too_large"
let err_unknown_method = "unknown_method"
let err_unknown_component = "unknown_component"
let err_busy = "busy"
let err_limit = "limit"
let err_internal = "internal"
