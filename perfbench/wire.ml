(* The client side of swsd's framing (a 4-byte big-endian length, then
   that many bytes of JSON) and the closed-loop load generator. *)

exception Closed

let rec really_write fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> really_write fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd b off len

let rec really_read fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise Closed
    | n -> really_read fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_read fd b off len

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  really_write fd b 0 (4 + n)

let read_frame fd =
  let h = Bytes.create 4 in
  really_read fd h 0 4;
  let n = Int32.to_int (Bytes.get_int32_be h 0) in
  let b = Bytes.create n in
  really_read fd b 0 n;
  Bytes.unsafe_to_string b

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* One request/response on a control connection (stats, cache, snapshot). *)
let call fd payload =
  write_frame fd payload;
  read_frame fd

(* {1 Closed loop} *)

(* One answered op.  [index] counts from 0 per session, prelude
   included; [measured] marks ops sent inside the measured phase. *)
type sample = {
  session : int;
  index : int;
  lat_ns : int;
  at_ns : int;  (** when the answer arrived, from the start of the measured phase *)
  resp : string;
  measured : bool;
}

type result = {
  samples : sample list;  (** every answered op, in completion order *)
  measured_ns : int;  (** from the phase start to the last measured answer *)
  client_cpu_s : float;  (** this process's CPU over the measured phase *)
  daemon_cpu_ms : float;  (** the daemon's CPU over the measured phase *)
}

(* Drive [sessions] connections, each sending its next request only after
   the previous answer arrived.  Session [s] sends [frame s i] for
   i = 0, 1, ...; ops sent before [warmup_s] has passed are answered and
   kept (their answers are checked) but not measured; no op is sent
   after [warmup_s + seconds].  [daemon_cpu_ms] reads the daemon's CPU
   time; [at_count] runs once, when the [n]-th measured answer arrives. *)
let closed_loop ~sock ~daemon_cpu_ms ~sessions ~(frame : int -> int -> string) ~warmup_s ~seconds
    ~at_count:(n, at_n) =
  let answered = ref 0 in
  let fds = Array.init sessions (fun _ -> connect sock) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () ->
      let t_start = Stat.now_ns () in
      let t_measure = t_start + int_of_float (warmup_s *. 1e9) in
      let t_end = t_measure + int_of_float (seconds *. 1e9) in
      let next = Array.make sessions 0 in
      let sent_at = Array.make sessions 0 in
      let in_flight = Array.make sessions false in
      let samples = ref [] in
      let last_measured = ref t_measure in
      let cpu0 = ref 0. and dcpu0 = ref 0. and measuring = ref false in
      let send s =
        let payload = frame s next.(s) in
        let now = Stat.now_ns () in
        if (not !measuring) && now >= t_measure then begin
          measuring := true;
          cpu0 := Stat.self_cpu_s ();
          dcpu0 := daemon_cpu_ms ()
        end;
        sent_at.(s) <- now;
        in_flight.(s) <- true;
        write_frame fds.(s) payload
      in
      Array.iteri (fun s _ -> send s) fds;
      while Array.exists Fun.id in_flight do
        let waiting = List.filter (fun s -> in_flight.(s)) (List.init sessions Fun.id) in
        let ready =
          match waiting with
          | [ _ ] -> waiting
          | _ -> (
            match Unix.select (List.map (fun s -> fds.(s)) waiting) [] [] 1.0 with
            | ready, _, _ -> List.filter (fun s -> List.mem fds.(s) ready) waiting
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
        in
        List.iter
          (fun s ->
            let resp = read_frame fds.(s) in
            let now = Stat.now_ns () in
            let measured = sent_at.(s) >= t_measure in
            if measured then begin
              last_measured := now;
              incr answered;
              if !answered = n then at_n ()
            end;
            samples :=
              { session = s; index = next.(s); lat_ns = now - sent_at.(s); at_ns = now - t_measure; resp; measured }
              :: !samples;
            in_flight.(s) <- false;
            next.(s) <- next.(s) + 1;
            if now < t_end then send s)
          ready
      done;
      let client_cpu_s = Stat.self_cpu_s () -. !cpu0 in
      let daemon_cpu_ms = daemon_cpu_ms () -. !dcpu0 in
      { samples = List.rev !samples; measured_ns = !last_measured - t_measure; client_cpu_s;
        daemon_cpu_ms })
