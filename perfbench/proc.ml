(* The measured swsd as a child process: spawn it on a private socket,
   time it to its first answered ping, read its counters from /proc, and
   stop and reap it on every exit path. *)

type t = { pid : int; sock : string; mutable alive : bool }

let live : t list ref = ref []

(* SIGTERM, then SIGKILL if the daemon has not exited within [grace_s];
   always reaps, always removes the socket. *)
let stop ?(grace_s = 5.) d =
  if d.alive then begin
    d.alive <- false;
    live := List.filter (fun d' -> d'.pid <> d.pid) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.005;
          reap ()
        end
        else begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ();
    try Sys.remove d.sock with Sys_error _ -> ()
  end

let stop_all () = List.iter (fun d -> stop ~grace_s:1. d) !live

let () = at_exit stop_all

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

exception Not_ready of string

(* Start [exe serve] on [sock] and wait for its first answered ping.
   Returns the daemon and the seconds from spawn to that answer. *)
let spawn ~exe ~sock ~jobs ?snapshot () =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ exe; "serve"; "--socket"; sock; "--jobs"; string_of_int jobs;
      "--log-level"; "error"; "--slow-ms"; "0" ]
    @ match snapshot with Some p -> [ "--snapshot"; p ] | None -> []
  in
  let t0 = Stat.now_ns () in
  let null = Lazy.force devnull in
  let pid = Unix.create_process exe (Array.of_list args) null null Unix.stderr in
  let d = { pid; sock; alive = true } in
  live := d :: !live;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        d.alive <- false;
        raise (Not_ready "swsd exited before it listened"));
      if Unix.gettimeofday () > deadline then raise (Not_ready "swsd did not listen within 20 s");
      Unix.sleepf 0.0002;
      connect ()
  in
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Wire.write_frame fd {|{"id":0,"method":"ping"}|};
      let pong = Wire.read_frame fd in
      let setup_s = Stat.s_of_ns (Stat.now_ns () - t0) in
      match Obs.Json.of_string pong with
      | Ok j when Obs.Json.member "status" j = Some (Obs.Json.String "ok") -> (d, setup_s)
      | _ -> raise (Not_ready ("bad ping answer: " ^ pong)))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

(* Peak resident set ([VmHWM]) of [pid], in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
      | _ -> None)
    (String.split_on_char '\n' status)
  |> Option.value ~default:nan

(* User + system CPU of [pid] in milliseconds ([utime], [stime] of
   /proc/<pid>/stat, in USER_HZ = 100 ticks per second on Linux). *)
let cpu_ms pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  match String.split_on_char ' ' after with
  | _state :: rest ->
    let field i = float_of_string (List.nth rest (i - 4)) in
    (field 14 +. field 15) *. 10.
  | [] -> nan
