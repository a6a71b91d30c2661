(* swsd: the long-running composition server, plus a matching client
   subcommand.

     swsd serve --socket /tmp/swsd.sock --jobs 4
     swsd serve --tcp 127.0.0.1:7466
     swsd request --socket /tmp/swsd.sock --method ping
     swsd request --socket /tmp/swsd.sock --method compose \
       --param goal='(ab)*' --param-json components='["ab","ba"]'

   The daemon itself lives in [Server.Daemon]; this file is only flag
   parsing and the foreground wiring (print the bound address, wait,
   shut down on SIGINT/SIGTERM). *)

module J = Obs.Json
open Cmdliner

let addr_of ~socket ~tcp =
  match (socket, tcp) with
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | Some path, None -> Ok (Server.Protocol.Unix_sock path)
  | None, Some hostport -> (
    match String.rindex_opt hostport ':' with
    | None -> Error "--tcp expects HOST:PORT"
    | Some i -> (
      let host = String.sub hostport 0 i in
      let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
        Ok (Server.Protocol.Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error "--tcp expects HOST:PORT with PORT in 0..65535"))
  | None, None -> Error "one of --socket PATH or --tcp HOST:PORT is required"

let socket_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) a Unix-domain socket at $(docv).")

let tcp_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on (or connect to) $(docv).  Port 0 binds an ephemeral \
           port, printed on startup.")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let jobs_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Size of the domain pool requests are scheduled on.  Defaults to \
           \\$SWS_JOBS or the machine's recommended domain count.  \
           Responses are identical at every job count.")

let max_inflight_flag =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "Admission control: at most $(docv) requests dispatched at once; \
           the rest are answered $(b,busy) immediately.")

let max_frame_flag =
  Arg.(
    value
    & opt int Server.Protocol.default_max_frame
    & info [ "max-frame-bytes" ] ~docv:"BYTES"
        ~doc:
          "Largest accepted request frame.  Oversized frames are drained \
           and answered $(b,too_large); the connection survives.")

let cache_cap_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:
          "Cap every result-cache class (unfold, decision, compose, \
           mediator, peer, server_l1, server_l2) at $(docv) entries.  Defaults \
           to the per-store caps.  Caching never changes responses — \
           only how fast repeated work is answered.")

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the process-lifetime result caches entirely (the \
           ablation arm).  Responses are identical either way; \
           $(b,meta.cache.source) reports $(b,off).")

let deadline_flag =
  Arg.(
    value & opt float 5.
    & info [ "default-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-request deadline applied when the request carries no \
           budget.  A tripped deadline produces a structured \
           $(b,exhausted) response, never a hang.")

let metrics_port_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve $(b,GET /metrics) (Prometheus text format) and \
           $(b,GET /healthz) on 127.0.0.1:$(docv).  Port 0 binds an \
           ephemeral port, logged on startup.")

let no_metrics_flag =
  Arg.(
    value & flag
    & info [ "no-metrics" ]
        ~doc:
          "Disable metrics recording (the overhead-ablation arm).  \
           Responses are identical either way; scrapes still answer, \
           with frozen values.")

let log_level_flag =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Log threshold: $(b,debug), $(b,info), $(b,warn) or $(b,error).")

let log_json_flag =
  Arg.(
    value & flag
    & info [ "log-json" ]
        ~doc:
          "Emit log records as one JSON object per line instead of the \
           human-readable text form.")

let trace_sample_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Capture a full trace session around every $(docv)-th request; \
           fetch the latest with the $(b,trace) method.")

let trace_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Write each captured sample to $(docv)/trace-<trace_id>.json \
           (Chrome trace_event format: chrome://tracing, Perfetto).")

let slow_ms_flag =
  Arg.(
    value & opt float 1000.
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Log (warn) and count any request taking at least $(docv) \
           wall-clock milliseconds; 0 disables the check.")

let snapshot_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"PATH"
        ~doc:
          "Warm-boot from the binary snapshot at $(docv) if it exists \
           (interner, persistable caches, seed component registry); a \
           missing or invalid file degrades to a cold start.  Also the \
           default target of the $(b,snapshot) wire method.")

let serve socket tcp jobs max_inflight max_frame_bytes cache_cap no_cache
    deadline metrics_port no_metrics log_level log_json trace_sample trace_dir
    slow_ms snapshot =
  match addr_of ~socket ~tcp with
  | Error m -> `Error (true, m)
  | Ok addr -> (
    match Obs.Log.level_of_string log_level with
    | None ->
      `Error
        (true, Printf.sprintf "--log-level: unknown level %S" log_level)
    | Some level ->
      Obs.Log.set_level level;
      Obs.Log.set_format (if log_json then Obs.Log.Json else Obs.Log.Text);
      if no_cache then Sws.Engine.set_caching false;
      let cfg = Server.Daemon.default_config addr in
      let cfg =
        {
          cfg with
          Server.Daemon.jobs;
          max_inflight;
          max_frame_bytes;
          cache_cap;
          default_budget =
            Sws.Engine.Budget.combine cfg.Server.Daemon.default_budget
              (Sws.Engine.Budget.of_seconds deadline);
          metrics = not no_metrics;
          metrics_port;
          trace_sample;
          trace_dir;
          slow_ms = (if slow_ms > 0. then Some slow_ms else None);
          snapshot;
        }
      in
      let t = Server.Daemon.start cfg in
      (* The OCaml-level signal handler only runs when a domain-0 thread
         reaches a safe point, and every server thread parks in a blocking
         section (accept / read / join).  So the handler just sets a flag,
         and the main thread polls it from [Thread.delay] — which returns
         to OCaml code a few times per second, giving signals a safe point
         to fire from. *)
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      (try
         Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
         Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
       with Invalid_argument _ -> ());
      while not (Atomic.get stop_requested) do
        Thread.delay 0.25
      done;
      Server.Daemon.stop t;
      `Ok 0)

let serve_cmd =
  let doc = "run the composition server in the foreground" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const serve $ socket_flag $ tcp_flag $ jobs_flag $ max_inflight_flag
       $ max_frame_flag $ cache_cap_flag $ no_cache_flag $ deadline_flag
       $ metrics_port_flag $ no_metrics_flag $ log_level_flag $ log_json_flag
       $ trace_sample_flag $ trace_dir_flag $ slow_ms_flag $ snapshot_flag))

(* ------------------------------------------------------------------ *)
(* request                                                             *)
(* ------------------------------------------------------------------ *)

let method_flag =
  Arg.(
    required
    & opt (some string) None
    & info [ "method" ] ~docv:"NAME"
        ~doc:
          "Request method: ping, register, unregister, list, check, \
           equivalence, kprefix, compose, stats, cache, metrics, trace, \
           snapshot, close.")

let param_flags =
  Arg.(
    value & opt_all (pair ~sep:'=' string string) []
    & info [ "param" ] ~docv:"KEY=VALUE"
        ~doc:"A string-valued request parameter.  Repeatable.")

let param_json_flags =
  Arg.(
    value & opt_all (pair ~sep:'=' string string) []
    & info [ "param-json" ] ~docv:"KEY=JSON"
        ~doc:
          "A request parameter whose value is parsed as JSON (lists, \
           objects, numbers, booleans).  Repeatable.")

let meta_flag =
  Arg.(
    value & flag
    & info [ "meta" ]
        ~doc:
          "Ask the server for per-request metadata (duration, counters).  \
           Metadata carries wall-clock numbers, so it is excluded from \
           the bit-identical-across-jobs guarantee.")

let request socket tcp meth params json_params want_meta =
  match addr_of ~socket ~tcp with
  | Error m -> `Error (true, m)
  | Ok addr -> (
    let parsed =
      List.fold_left
        (fun acc (k, v) ->
          match acc with
          | Error _ -> acc
          | Ok acc -> (
            match J.of_string v with
            | Ok j -> Ok ((k, j) :: acc)
            | Error e ->
              Error (Printf.sprintf "--param-json %s: %s" k e)))
        (Ok []) json_params
    in
    match parsed with
    | Error m -> `Error (true, m)
    | Ok json_params -> (
      let params =
        List.map (fun (k, v) -> (k, J.String v)) params @ List.rev json_params
      in
      let c =
        try Ok (Server.Client.connect addr)
        with Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "cannot connect to %a: %s" Server.Protocol.pp_addr addr
                   (Unix.error_message e))
      in
      match c with
      | Error m -> `Error (false, m)
      | Ok c -> (
        let r = Server.Client.call ~want_meta c ~meth ~params in
        Server.Client.close c;
        match r with
        | Error m -> `Error (false, m)
        | Ok response ->
          Fmt.pr "%s@." (J.to_string response);
          let failed =
            match J.member "status" response with
            | Some (J.String "ok") -> false
            | _ -> true
          in
          `Ok (if failed then 1 else 0))))

let request_cmd =
  let doc = "send one request to a running swsd and print the response" in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      ret
        (const request $ socket_flag $ tcp_flag $ method_flag $ param_flags
       $ param_json_flags $ meta_flag))

(* ------------------------------------------------------------------ *)
(* snapshot                                                            *)
(* ------------------------------------------------------------------ *)

(* Sugar for [request --method snapshot]: ask the running daemon to dump
   its live state (interner, persistable caches, this session's component
   registry) to a snapshot file it can warm-boot from. *)

let snapshot_path_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "path" ] ~docv:"PATH"
        ~doc:
          "Write the snapshot to $(docv).  Defaults to the daemon's own \
           $(b,--snapshot) path when it was started with one.")

let snapshot socket tcp path =
  let params = match path with None -> [] | Some p -> [ ("path", p) ] in
  request socket tcp "snapshot" params [] false

let snapshot_cmd =
  let doc = "ask a running swsd to dump a warm-boot snapshot" in
  Cmd.v (Cmd.info "snapshot" ~doc)
    Term.(
      ret (const snapshot $ socket_flag $ tcp_flag $ snapshot_path_flag))

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "the SWS composition server and its client" in
  let info = Cmd.info "swsd" ~version:"1.0" ~doc in
  Cmd.group info [ serve_cmd; request_cmd; snapshot_cmd ]

let () = exit (Cmd.eval' main_cmd)
