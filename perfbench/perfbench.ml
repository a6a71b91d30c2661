(* perfbench: the benchmark of swsd and the paper's kernels.

     perfbench --workload cold_mix|warm_mix|paper_kernels --seed N
               --seconds S --trace 0|1

   Run from the repository root (perfbench/run.py builds and runs it).
   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  See
   perfbench/README.md. *)

module J = Obs.Json
open Workload

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type kind = Cold_mix | Warm_mix | Paper_kernels

let kinds = [ ("cold_mix", Cold_mix); ("warm_mix", Warm_mix); ("paper_kernels", Paper_kernels) ]
let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

type opts = { kind : kind; seed : int; seconds : float; trace : bool }

let usage = "usage: perfbench --workload cold_mix|warm_mix|paper_kernels --seed N --seconds S --trace 0|1"

(* the daemon under test, as dune builds it *)
let swsd = "_build/default/bin/swsd.exe"

(* sockets, snapshots and span files *)
let out_dir = "perfbench/out"

exception Usage of string

(* Strict: every flag is required, takes a value and appears once, and
   anything else is an error. *)
let parse_args argv =
  let rec pairs acc = function
    | [] -> List.rev acc
    | [ f ] -> raise (Usage (f ^ " needs a value"))
    | f :: v :: rest ->
      if not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ]) then
        raise (Usage ("unknown argument " ^ f));
      if List.mem_assoc f acc then raise (Usage (f ^ " given twice"));
      pairs ((f, v) :: acc) rest
  in
  let kv = pairs [] argv in
  let get f = match List.assoc_opt f kv with Some v -> v | None -> raise (Usage (f ^ " is required")) in
  let int_of f =
    match int_of_string_opt (get f) with Some n -> n | None -> raise (Usage (f ^ " expects an integer"))
  in
  let kind =
    match List.assoc_opt (get "--workload") kinds with
    | Some k -> k
    | None -> raise (Usage ("unknown workload " ^ get "--workload"))
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. && s <= 600. -> s
    | _ -> raise (Usage "--seconds expects a number in (0, 600]")
  in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> raise (Usage "--trace expects 0 or 1")
  in
  { kind; seed = int_of "--seed"; seconds; trace }

(* ------------------------------------------------------------------ *)
(* Fixed settings                                                      *)
(* ------------------------------------------------------------------ *)

let nproc = Domain.recommended_domain_count ()

(* The measured daemon's pool, pinned at or below the core count.
   cold_mix is kernel-bound and runs its two sessions in parallel.
   warm_mix answers from the reply caches in tens of microseconds; with a
   second pool domain its requests hop between domains, and on two cores
   shared with the load generator the hop's scheduling noise swamps the
   layers it measures, so its daemon runs requests inline. *)
let jobs_for = function Cold_mix -> max 1 (min 2 nproc) | Warm_mix | Paper_kernels -> 1

(* the job count the payload digest is cross-checked against *)
let other_jobs j = if j = 1 then 2 else 1

(* closed-loop connections *)
let clients = 2

(* daemon starts per run; setup_s is their median *)
let setup_reps = 9

(* each session's first answers, compared across job counts and runs *)
let digest_prefix = 64

let warmup_s = 1.0

(* peak_rss_mb is the VmHWM after this many measured ops (or at the end
   of a run that answers fewer): the daemon's and the kernels' memory
   grows with the work done, so a reading at a fixed amount of work keeps
   a faster build from reading as a fatter one. *)
let rss_after_ops = function Cold_mix -> 5_000 | Warm_mix -> 100_000 | Paper_kernels -> 2_000

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* A problem that makes the whole run incorrect (not one op). *)
let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems; prerr_endline ("perfbench: " ^ m)) fmt

(* Latency: each op kind (request method, or kernel family) gets its own
   nearest-rank p50 and p99 over its exact samples of the whole measured
   phase, at least 1000 per kind in a full-length run, so at least ten lie
   beyond p99; the reported figure is the geometric mean over kinds.  The
   kinds' latencies lie decades apart, so a percentile of the pooled
   samples would fall in a sparse gap between them and jump with the
   seed's mix; each kind's own percentile sits where its samples are
   dense.

   Throughput: the measured phase is cut into windows, and the reported
   figure is the median of the windows' throughput, so one disturbed
   window does not move it.  The server workloads cut [windows] equal
   spans of wall time; paper_kernels cuts whole passes over its instance
   pool, so that every window holds the same instances.  Each window's
   latency percentiles are printed too, to show drift within a run. *)
let windows = 10

type window = { w_p50 : float; w_p99 : float; w_ops_per_s : float; w_samples : int }

(* How a window's throughput is read: [`Wall span_s] is its ops per
   second of wall time (the server workloads, whose sessions overlap);
   [`Per_kind] is the geometric mean over kinds of each kind's ops per
   second of its own call time (paper_kernels, one call at a time), so
   that the costliest family's draw of instances does not set the figure
   alone. *)
type throughput = [ `Wall of float | `Per_kind ]

type e2e = {
  per_window : window list;
  figures : window;  (** what is reported *)
  attempted : int;
  failed : int;
  decided : int;
  setup_s : float;
  peak_rss_mb : float;
  client_cpu_share : float;  (** the load generator's CPU / wall; nan in-process *)
}

(* The figures of a window, or of the whole phase, from its ops as
   (kind, latency) pairs. *)
let window_of ~(throughput : throughput) ops =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun (kind, ms) -> Hashtbl.replace by_kind kind (ms :: Option.value ~default:[] (Hashtbl.find_opt by_kind kind)))
    ops;
  let per_kind = Hashtbl.fold (fun _ ms acc -> Stat.sorted ms :: acc) by_kind [] in
  let across f = Stat.geomean (List.map f per_kind) in
  let n = List.length ops in
  { w_p50 = across (fun a -> Stat.percentile a 0.50);
    w_p99 = across (fun a -> Stat.percentile a 0.99);
    w_ops_per_s =
      (match throughput with
      | `Wall span_s -> float_of_int n /. span_s
      | `Per_kind -> across (fun a -> float_of_int (Array.length a) /. (Stat.sum (Array.to_list a) /. 1e3)));
    w_samples = n }

(* [windows] equal spans of [seconds]; [ops] are (completion time from
   the phase start, kind, latency) triples. *)
let time_windows ~seconds ops =
  let span_ns = int_of_float (seconds *. 1e9) / windows in
  let buckets = Array.make windows [] in
  List.iter
    (fun (at, kind, ms) ->
      let w = max 0 (min (windows - 1) (at / span_ns)) in
      buckets.(w) <- (kind, ms) :: buckets.(w))
    ops;
  List.map (window_of ~throughput:(`Wall (Stat.s_of_ns span_ns))) (Array.to_list buckets)

(* What a run reports: the whole phase's latency, the windows' median
   throughput. *)
let run_figures ~throughput ~windows ops =
  { (window_of ~throughput ops) with w_ops_per_s = Stat.median (List.map (fun w -> w.w_ops_per_s) windows) }

let p50 e = e.figures.w_p50
let p99 e = e.figures.w_p99
let ops_per_s e = e.figures.w_ops_per_s

let metric v unit = (J.Float v, unit)

let e2e_metrics e =
  [ ("op_p50_ms", metric (p50 e) "ms");
    ("op_p99_ms", metric (p99 e) "ms");
    ("ops_per_s", metric (ops_per_s e) "1/s");
    ("decided_share", metric (Stat.ratio (float_of_int e.decided) (float_of_int e.attempted)) "share");
    ("setup_s", metric e.setup_s "s");
    ("peak_rss_mb", metric e.peak_rss_mb "MiB") ]

let print_e2e name e =
  Printf.printf
    "%-13s op p50 %.3f ms  p99 %.3f ms  %.1f ops/s (%d windows; %d exact samples)  \
     failed_share %.4f  decided_share %.4f  setup %.4f s  peak rss %.1f MiB%s\n"
    name (p50 e) (p99 e) (ops_per_s e) (List.length e.per_window) e.attempted
    (Stat.ratio (float_of_int e.failed) (float_of_int e.attempted))
    (Stat.ratio (float_of_int e.decided) (float_of_int e.attempted))
    e.setup_s e.peak_rss_mb
    (if Float.is_nan e.client_cpu_share then "" else Printf.sprintf "  client cpu %.3f" e.client_cpu_share);
  List.iteri
    (fun i w ->
      Printf.printf "  window %d: %6d samples  p50 %.3f ms  p99 %.3f ms  %.1f ops/s\n" i w.w_samples w.w_p50 w.w_p99
        w.w_ops_per_s)
    e.per_window;
  flush stdout

(* Per-kind latency and outcome counts of the measured ops. *)
let print_breakdown ops =
  let labels = List.sort_uniq compare (List.map (fun (l, _, _) -> l) ops) in
  List.iter
    (fun l ->
      let mine = List.filter (fun (l', _, _) -> l = l') ops in
      let a = Stat.sorted (List.map (fun (_, ms, _) -> ms) mine) in
      let count p = List.length (List.filter (fun (_, _, v) -> p v) mine) in
      Printf.printf "  %-26s n %6d  p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms  decided %d  tripped %d  failed %d\n"
        l (Array.length a) (Stat.percentile a 0.5) (Stat.percentile a 0.99) (Stat.percentile a 1.)
        (count (( = ) Check.Decided)) (count (( = ) Check.Tripped))
        (count (function Check.Failed _ -> true | _ -> false)))
    labels

(* ------------------------------------------------------------------ *)
(* Server workloads                                                    *)
(* ------------------------------------------------------------------ *)

(* Per-op metadata of a run made with [meta: true]. *)
type meta = { handle_ms : float; outside_ms : float; source : string; counters : J.t }

type server_run = {
  e2e : e2e;
  reqs : (Wire.sample * req) list;  (** measured ops *)
  metas : (Wire.sample * req * meta) list;  (** measured ops, when traced *)
  digest : string;
  cache_before : J.t;
  cache_after : J.t;
  daemon_stats : J.t;
  daemon_cpu_ms : float;
}

let control_call sock meth =
  let fd = Wire.connect sock in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let raw = Wire.call fd (J.to_string (J.Obj [ ("id", J.Int 0); ("method", J.String meth) ])) in
      match J.of_string raw with
      | Ok j -> Option.value ~default:J.Null (J.member "result" j)
      | Error e -> failwith ("control call " ^ meth ^ ": " ^ e))

(* Per-class gauges of the process-lifetime caches. *)
let cache_classes sock = Option.value ~default:J.Null (J.member "classes" (control_call sock "cache"))

let gauge j cls field =
  match Option.bind (J.member cls j) (J.member field) with Some (J.Int n) -> n | _ -> 0

let classes j = match j with J.Obj kvs -> List.map fst kvs | _ -> []

let session_frame w ~meta s i =
  let n = List.length w.prelude in
  let r = if i < n then List.nth w.prelude i else get w s (i - n) in
  (r, frame ~meta ~id:i r)

(* Each session's first [digest_prefix] payloads, in order, from the
   answers keyed by (session, index). *)
let digest_of answers =
  let by_key = Hashtbl.create 256 in
  List.iter (fun (k, resp) -> Hashtbl.replace by_key k resp) answers;
  let buf = Buffer.create 4096 in
  for s = 0 to clients - 1 do
    for i = 0 to digest_prefix - 1 do
      match Hashtbl.find_opt by_key (s, i) with
      | Some r -> Buffer.add_string buf (Check.payload r); Buffer.add_char buf '\n'
      | None -> Buffer.add_string buf "<unanswered>\n"
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Replay each session's digest prefix, one session after the other, on
   a daemon with [jobs] pool domains. *)
let replay_digest w ~jobs ~snapshot ~sock =
  let d, _ = Proc.spawn ~exe:swsd ~sock ~jobs ?snapshot () in
  Fun.protect
    ~finally:(fun () -> Proc.stop d)
    (fun () ->
      let answers = ref [] in
      for s = 0 to clients - 1 do
        let fd = Wire.connect sock in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            for i = 0 to digest_prefix - 1 do
              let _, f = session_frame w ~meta:false s i in
              answers := ((s, i), Wire.call fd f) :: !answers
            done)
      done;
      digest_of !answers)

(* Prime a daemon with every distinct warm_mix request and snapshot it to
   [snap]; returns the payload each request answered. *)
let prime_warm ~o ~sock ~snap =
  let d, _ = Proc.spawn ~exe:swsd ~sock ~jobs:(jobs_for Warm_mix) () in
  Fun.protect
    ~finally:(fun () -> Proc.stop d)
    (fun () ->
      let prelude, reads = Workload.warm_priming ~seed:o.seed in
      let fd = Wire.connect sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iter (fun r -> ignore (Wire.call fd (frame ~meta:false ~id:0 r))) prelude;
          let expected = Hashtbl.create 256 in
          List.iter
            (fun r ->
              let resp = Wire.call fd (frame ~meta:false ~id:0 r) in
              Hashtbl.replace expected (r.meth, J.to_string r.params) (Check.payload resp))
            reads;
          let snap_req =
            J.to_string
              (J.Obj [ ("id", J.Int 0); ("method", J.String "snapshot"); ("params", J.Obj [ ("path", J.String snap) ]) ])
          in
          let resp = Wire.call fd snap_req in
          (match J.of_string resp with
          | Ok j when J.member "status" j = Some (J.String "ok") -> ()
          | _ -> problem "priming snapshot failed: %s" resp);
          expected))

let parse_meta (s : Wire.sample) =
  match J.of_string s.resp with
  | Ok j -> (
    match J.member "meta" j with
    | Some m ->
      let handle_ms = Option.value ~default:nan (Option.bind (J.member "duration_ms" m) J.to_float_opt) in
      let source =
        match Option.bind (J.member "cache" m) (J.member "source") with Some (J.String s) -> s | _ -> "?"
      in
      Some
        { handle_ms; outside_ms = Stat.ms_of_ns s.lat_ns -. handle_ms; source;
          counters = Option.value ~default:J.Null (J.member "counters" m) }
    | None -> None)
  | Error _ -> None

let cacheable = function "check" | "equivalence" | "kprefix" | "compose" -> true | _ -> false

(* The op kind a server request's latency is grouped under. *)
let kind_label r = match r.spec with Compose_mdtb _ -> "compose/mdtb" | _ -> r.meth

let run_server ~o ~kind ~meta ~seconds =
  let jobs = jobs_for kind in
  let tag = Printf.sprintf "%d-%s" (Unix.getpid ()) (if meta then "t" else "u") in
  let sock = Filename.concat out_dir ("swsd-" ^ tag ^ ".sock") in
  let snap = Filename.concat out_dir ("warm-" ^ tag ^ ".snap") in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let w, expected, snapshot =
        match kind with
        | Warm_mix ->
          let expected = prime_warm ~o ~sock ~snap in
          (Workload.warm ~seed:o.seed ~sessions:clients, Some expected, Some snap)
        | _ -> (Workload.cold ~seed:o.seed ~sessions:clients, None, None)
      in
      (* setup: spawn to first answered ping, several times; the last
         daemon started is the measured one *)
      let setups = ref [] and daemon = ref None in
      for i = 1 to setup_reps do
        let d, s = Proc.spawn ~exe:swsd ~sock ~jobs ?snapshot () in
        setups := s :: !setups;
        if i < setup_reps then Proc.stop d else daemon := Some d
      done;
      let d = Option.get !daemon in
      let measured =
        Fun.protect
          ~finally:(fun () -> Proc.stop d)
          (fun () ->
            let cache_before = cache_classes sock in
            let sent = Hashtbl.create 4096 in
            let frame s i =
              let r, f = session_frame w ~meta s i in
              Hashtbl.replace sent (s, i) r;
              f
            in
            let rss = ref nan in
            let read_rss () = rss := Proc.peak_rss_mb d.Proc.pid in
            let res =
              Wire.closed_loop ~sock ~daemon_cpu_ms:(fun () -> Proc.cpu_ms d.Proc.pid) ~sessions:clients ~frame
                ~warmup_s ~seconds ~at_count:(rss_after_ops kind, read_rss)
            in
            if Float.is_nan !rss then read_rss ();
            let rss = !rss in
            let cache_after = cache_classes sock in
            let daemon_stats = control_call sock "stats" in
            (res, sent, cache_before, cache_after, daemon_stats, rss))
      in
      let res, sent, cache_before, cache_after, daemon_stats, rss = measured in
      (* answers: checked once per distinct (request, payload) *)
      let memo = Hashtbl.create 1024 in
      let verdict (s : Wire.sample) =
        let r = Hashtbl.find sent (s.session, s.index) in
        let key = (Lazy.force r.body, Check.answer_key s.resp) in
        match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          let v =
            match Check.verdict r s.resp with
            | Check.Decided as v -> (
              match Option.bind expected (fun e -> Hashtbl.find_opt e (r.meth, J.to_string r.params)) with
              | Some p when p <> Check.payload s.resp ->
                Check.Failed (r.meth ^ ": answer differs from the priming daemon's")
              | _ -> v)
            | v -> v
          in
          Hashtbl.replace memo key v;
          v
      in
      let attempted = ref 0 and failed = ref 0 and decided = ref 0 and lat = ref [] and reqs = ref [] in
      let reported = ref 0 and warmup_failed = ref 0 in
      List.iter
        (fun (s : Wire.sample) ->
          let v = verdict s in
          (match v with
          | Check.Failed m ->
            let r = Hashtbl.find sent (s.session, s.index) in
            if !reported < 5 then prerr_endline ("perfbench: failed op: " ^ m ^ " on " ^ J.to_string r.params);
            incr reported;
            if not s.measured then incr warmup_failed
          | _ -> ());
          if s.measured then begin
            let r = Hashtbl.find sent (s.session, s.index) in
            incr attempted;
            lat := (s.at_ns, kind_label r, Stat.ms_of_ns s.lat_ns) :: !lat;
            reqs := (s, r) :: !reqs;
            match v with Check.Decided -> incr decided | Check.Tripped -> () | Check.Failed _ -> incr failed
          end)
        res.Wire.samples;
      if !warmup_failed > 0 then problem "%d warm-up ops failed" !warmup_failed;
      print_breakdown
        (List.map (fun ((s : Wire.sample), r) -> (kind_label r, Stat.ms_of_ns s.lat_ns, verdict s)) !reqs);
      (* the cache layers must see the traffic the workload was built for *)
      let l1h = gauge cache_after "server_l1" "hits" - gauge cache_before "server_l1" "hits" in
      let l1m = gauge cache_after "server_l1" "misses" - gauge cache_before "server_l1" "misses" in
      let l2h = gauge cache_after "server_l2" "hits" - gauge cache_before "server_l2" "hits" in
      (match kind with
      | Cold_mix -> if l1h + l2h > 0 then problem "cold_mix saw %d L1 and %d L2 hits; it must see none" l1h l2h
      | _ ->
        let cacheable_ops = Hashtbl.fold (fun _ r n -> if cacheable r.meth then n + 1 else n) sent 0 in
        let trips =
          Hashtbl.fold (fun _ r n -> match r.spec with Compose_mdtb _ -> n + 1 | _ -> n) sent 0
        in
        let implied = 1. -. Stat.ratio (float_of_int trips) (float_of_int cacheable_ops) in
        let got = Stat.ratio (float_of_int (l1h + l2h)) (float_of_int (l1h + l1m)) in
        if got < implied -. 0.01 then
          problem "warm_mix L1+L2 hit ratio %.4f is below the %.4f its design implies" got implied;
        if Option.bind (J.member "snapshot" daemon_stats) (J.member "loaded") <> Some (J.Bool true) then
          problem "warm_mix's daemon did not boot from the priming snapshot");
      let spans = time_windows ~seconds !lat in
      let e2e =
        {
          per_window = spans;
          figures = run_figures ~throughput:(`Wall seconds) ~windows:spans (List.map (fun (_, k, ms) -> (k, ms)) !lat);
          attempted = !attempted;
          failed = !failed;
          decided = !decided;
          setup_s = Stat.median !setups;
          peak_rss_mb = rss;
          client_cpu_share = Stat.ratio res.Wire.client_cpu_s (Stat.s_of_ns res.Wire.measured_ns);
        }
      in
      let digest = digest_of (List.map (fun (s : Wire.sample) -> ((s.session, s.index), s.resp)) res.Wire.samples) in
      let jobs' = other_jobs jobs in
      let digest' = replay_digest w ~jobs:jobs' ~snapshot ~sock in
      if digest' <> digest then problem "%s payload digest differs between --jobs %d and --jobs %d" w.name jobs jobs';
      let metas =
        if meta then List.filter_map (fun (s, r) -> Option.map (fun m -> (s, r, m)) (parse_meta s)) !reqs else []
      in
      Printf.printf "%s payload digest %s (first %d answers per session; --jobs %d and --jobs %d agree: %b)\n%!"
        w.name digest digest_prefix jobs jobs' (digest' = digest);
      { e2e; reqs = List.rev !reqs; metas; digest; cache_before; cache_after;
        daemon_stats; daemon_cpu_ms = res.Wire.daemon_cpu_ms })

(* ------------------------------------------------------------------ *)
(* paper_kernels                                                       *)
(* ------------------------------------------------------------------ *)

type kernel_run = {
  k_e2e : e2e;
  by_family : (string * float list) list;  (** per-call ms *)
  stats : Sws.Engine.Stats.t;
  minor_words : float;
  major_collections : int;
}

(* One thread runs the pool round-robin.  Only the procedure calls are
   timed: the measured phase runs whole passes over the pool until their
   summed time reaches [seconds], and the cache clear before each call and
   the answer check after it fall outside it.  Each pass is a window. *)
let run_kernels ~o ~traced ~seconds =
  (* setup: instance generation, timed [setup_reps] times before the run
     and once more before each measured pass, so that its median samples
     the whole run; each generation starts after a major GC cycle, so from
     the same heap state, and so does each pass *)
  let setups = ref [] in
  let time_setup () =
    Gc.major ();
    let t0 = Stat.now_ns () in
    let pool = Kernels.pool ~seed:o.seed in
    setups := Stat.s_of_ns (Stat.now_ns () - t0) :: !setups;
    pool
  in
  let pool = ref [||] in
  for _ = 1 to setup_reps do
    pool := time_setup ()
  done;
  let pool = !pool in
  let stats = Sws.Engine.Stats.create () in
  let run_one i =
    let inst = pool.(i mod Array.length pool) in
    Sws.Engine.cache_clear_all ();
    let call () = inst.Kernels.run stats in
    let t0 = Stat.now_ns () in
    let check =
      if traced then begin
        Span.request := i;
        Span.with_ inst.Kernels.family call
      end
      else call ()
    in
    let ns = Stat.now_ns () - t0 in
    (inst.Kernels.family, ns, check ())
  in
  (* warm-up: one pass over the pool, unmeasured but checked *)
  let warmup_failures =
    List.filter_map
      (fun i -> match run_one i with f, _, Check.Failed m -> Some (f ^ ": " ^ m) | _ -> None)
      (List.init (Array.length pool) Fun.id)
  in
  (match warmup_failures with
  | [] -> ()
  | m :: _ -> problem "%d warm-up kernel ops failed, first: %s" (List.length warmup_failures) m);
  let gc0 = Gc.quick_stat () in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let n = Array.length pool in
  let busy_ns = ref 0 and ops = ref [] and i = ref 0 and rss = ref nan in
  let failed = ref 0 and decided = ref 0 in
  while !busy_ns < budget_ns || !i mod n <> 0 do
    if !i mod n = 0 then ignore (Sys.opaque_identity (time_setup ()));
    let family, ns, v = run_one !i in
    busy_ns := !busy_ns + ns;
    (match v with
    | Check.Decided -> incr decided
    | Check.Tripped -> ()
    | Check.Failed m ->
      if !failed < 5 then prerr_endline ("perfbench: failed op: " ^ family ^ ": " ^ m);
      incr failed);
    ops := (family, !i / n, Stat.ms_of_ns ns, v) :: !ops;
    incr i;
    if !i = rss_after_ops Paper_kernels then rss := Proc.peak_rss_mb (Unix.getpid ())
  done;
  if Float.is_nan !rss then rss := Proc.peak_rss_mb (Unix.getpid ());
  let gc1 = Gc.quick_stat () in
  let ops = List.rev !ops in
  print_breakdown (List.map (fun (f, _, ms, v) -> (f, ms, v)) ops);
  let passes =
    List.init (!i / n) (fun pass ->
        window_of ~throughput:`Per_kind (List.filter_map (fun (f, p, ms, _) -> if p = pass then Some (f, ms) else None) ops))
  in
  {
    k_e2e =
      {
        per_window = passes;
        figures = run_figures ~throughput:`Per_kind ~windows:passes (List.map (fun (f, _, ms, _) -> (f, ms)) ops);
        attempted = List.length ops;
        failed = !failed;
        decided = !decided;
        setup_s = Stat.median !setups;
        peak_rss_mb = !rss;
        client_cpu_share = nan;
      };
    by_family =
      List.map
        (fun f -> (f, List.filter_map (fun (f', _, ms, _) -> if f = f' then Some ms else None) ops))
        (List.sort_uniq compare (List.map (fun (f, _, _, _) -> f) ops));
    stats;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let counter_sum metas key =
  Stat.sum
    (List.map
       (fun (_, _, m) -> match J.member key m.counters with Some (J.Int n) -> float_of_int n | _ -> 0.)
       metas)

let per_op total n = Stat.ratio total (float_of_int n)

(* Server-side per-layer metrics shared by both server workloads. *)
let server_layers prefix (r : server_run) =
  let n = List.length r.metas in
  let med f = Stat.median (List.map (fun (_, _, m) -> f m) r.metas) in
  [ (prefix ^ ".server.handle_ms.p50", metric (med (fun m -> m.handle_ms)) "ms");
    (prefix ^ ".server.outside_ms.p50", metric (med (fun m -> m.outside_ms)) "ms");
    (prefix ^ ".daemon.cpu_ms_per_op", metric (per_op r.daemon_cpu_ms r.e2e.attempted) "ms");
    (prefix ^ ".engine.nodes_per_op", metric (per_op (counter_sum r.metas "nodes_expanded") n) "count");
    (prefix ^ ".client.cpu_share", metric r.e2e.client_cpu_share "share") ]

(* Hit ratios of the reply caches, from each cacheable op's
   meta.cache.source. *)
let source_ratios (r : server_run) =
  let ms = List.filter (fun (_, req, _) -> cacheable req.meth) r.metas in
  let share src =
    Stat.ratio (float_of_int (List.length (List.filter (fun (_, _, m) -> m.source = src) ms))) (float_of_int (List.length ms))
  in
  (share "l1", share "l2", share "miss")

(* Memo classes are every cache class but the two reply caches. *)
let memo_delta (r : server_run) field =
  List.fold_left
    (fun acc cls ->
      if cls = "server_l1" || cls = "server_l2" then acc
      else acc + gauge r.cache_after cls field - gauge r.cache_before cls field)
    0 (classes r.cache_after)

let all_delta (r : server_run) field =
  List.fold_left (fun acc cls -> acc + gauge r.cache_after cls field - gauge r.cache_before cls field) 0 (classes r.cache_after)

let memo_hit_ratio r =
  let h = memo_delta r "hits" and m = memo_delta r "misses" in
  Stat.ratio (float_of_int h) (float_of_int (h + m))

(* Time [f] over every element of [xs], repeated until at least 50 ms
   have passed; microseconds per element. *)
let time_per_item xs f =
  let n = List.length xs in
  if n = 0 then 0.
  else
    let t0 = Stat.now_ns () in
    let rounds = ref 0 in
    while Stat.now_ns () - t0 < 50_000_000 do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      incr rounds
    done;
    float_of_int (Stat.now_ns () - t0) /. 1e3 /. float_of_int (n * !rounds)

let replay_tolerance = (0.5, 1.5)

let traced_run o =
  let t = o.seconds in
  let slice = function Cold_mix -> 0.25 *. t | Warm_mix -> 0.2 *. t | Paper_kernels -> 0.15 *. t in
  let cold = run_server ~o ~kind:Cold_mix ~meta:true ~seconds:(slice Cold_mix) in
  (* replay cold_mix's answered requests in-process, in completion order *)
  Span.reset ();
  Sws.Engine.cache_clear_all ();
  let gc0 = Gc.quick_stat () in
  let lang0 = Automata.Lang.states_explored_total () in
  let deadline = Stat.now_ns () + int_of_float (0.2 *. t *. 1e9) in
  let replayed = ref [] and mismatches = ref 0 in
  let rec go idx = function
    | [] -> ()
    | ((s : Wire.sample), r) :: rest ->
      if Stat.now_ns () < deadline then begin
        let resp = Replay.one ~req:idx (frame ~meta:false ~id:s.index r) in
        if Check.payload resp <> Check.payload s.resp then incr mismatches;
        replayed := s :: !replayed;
        go (idx + 1) rest
      end
  in
  go 0 cold.reqs;
  let gc1 = Gc.quick_stat () in
  let nrep = List.length !replayed in
  if !mismatches > 0 then
    prerr_endline (Printf.sprintf "perfbench: %d of %d replayed answers differ from swsd's" !mismatches nrep);
  let self = Span.self_ns () in
  let self_ms names =
    per_op
      (Stat.sum (List.map (fun n -> Stat.ms_of_ns (Option.value ~default:0 (Hashtbl.find_opt self n))) names))
      nrep
  in
  let handle_of = Hashtbl.create 1024 in
  List.iter (fun ((s : Wire.sample), _, m) -> Hashtbl.replace handle_of (s.session, s.index) m.handle_ms) cold.metas;
  let handle_total =
    Stat.sum (List.map (fun (s : Wire.sample) -> Option.value ~default:0. (Hashtbl.find_opt handle_of (s.session, s.index))) !replayed)
  in
  let coverage = Stat.ratio (Stat.ms_of_ns (Span.total_ns "dispatch")) handle_total in
  let lo, hi = replay_tolerance in
  Printf.printf "replay: %d requests, coverage %.3f (tolerance %.2f..%.2f: %s), %d answers differ from swsd\n%!"
    nrep coverage lo hi (if coverage >= lo && coverage <= hi then "within" else "OUTSIDE") !mismatches;
  let warm = run_server ~o ~kind:Warm_mix ~meta:true ~seconds:(slice Warm_mix) in
  (* kernel calls add their spans to the replay's; all are written at once *)
  let kern = run_kernels ~o ~traced:true ~seconds:(slice Paper_kernels) in
  Span.write (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" (kind_name o.kind) o.seed));
  (* overhead: the requested workload again, untraced, same length *)
  let traced_e2e, untraced_e2e =
    match o.kind with
    | Cold_mix | Warm_mix ->
      let traced = if o.kind = Cold_mix then cold else warm in
      let plain = run_server ~o ~kind:o.kind ~meta:false ~seconds:(slice o.kind) in
      if plain.digest <> traced.digest then problem "%s payload digest differs between traced and untraced runs" (kind_name o.kind);
      (traced.e2e, plain.e2e)
    | Paper_kernels -> (kern.k_e2e, (run_kernels ~o ~traced:false ~seconds:(slice Paper_kernels)).k_e2e)
  in
  let l1, l2, miss = source_ratios warm in
  (* the wire and JSON layers as an untraced client sees them: frames
     without [meta] *)
  let req_frames = List.map (fun ((s : Wire.sample), r) -> frame ~meta:false ~id:s.index r) warm.reqs in
  let responses =
    List.filter_map
      (fun ((s : Wire.sample), _) ->
        match J.of_string s.resp with Ok (J.Obj kvs) -> Some (J.Obj (List.remove_assoc "meta" kvs)) | _ -> None)
      warm.reqs
  in
  let mean_len xs = per_op (Stat.sum (List.map (fun x -> float_of_int (String.length x)) xs)) (List.length xs) in
  let snapshot_field f =
    match Option.bind (J.member "snapshot" warm.daemon_stats) (J.member f) with
    | Some (J.Int n) -> float_of_int n
    | Some (J.Float x) -> x
    | _ -> nan
  in
  let family_ms f = match List.assoc_opt f kern.by_family with Some xs -> Stat.median xs | None -> nan in
  let kops = kern.k_e2e.attempted in
  let metrics =
    server_layers "cold_mix" cold
    @ [ ("cold_mix.cache.memo_hit_ratio", metric (memo_hit_ratio cold) "share");
        ("automata.nfa_build_ms", metric (self_ms [ "nfa.of_regex" ]) "ms");
        ("automata.afa_ms", metric (self_ms [ "decision.pl_non_emptiness" ]) "ms");
        ("automata.lang_ms", metric (self_ms [ "decision.pl_validation"; "decision.pl_equivalence" ]) "ms");
        ( "automata.lang_states_per_op",
          metric (per_op (float_of_int (Automata.Lang.states_explored_total () - lang0)) nrep) "count" );
        ("core.roman_ms", metric (self_ms [ "roman.to_sws_pl" ]) "ms");
        ("compose.or_ms", metric (self_ms [ "compose.compose_nfa_or" ]) "ms");
        ("compose.mdtb_ms", metric (self_ms [ "compose.compose_mdtb" ]) "ms");
        ("compose.kprefix_ms", metric (self_ms [ "dfa.of_nfa"; "compose.k_prefix_bound" ]) "ms");
        ("replay.json_ms", metric (self_ms [ "json.decode"; "protocol.request_of_json"; "json.encode" ]) "ms");
        ("replay.coverage", metric coverage "ratio");
        ( "replay.gc.minor_words_per_op",
          metric (per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words) nrep) "words" ) ]
    @ server_layers "warm_mix" warm
    @ [ ("json.decode_us_per_op", metric (time_per_item req_frames J.of_string) "us");
        ("json.encode_us_per_op", metric (time_per_item responses J.to_string) "us");
        ("wire.req_bytes", metric (mean_len req_frames) "bytes");
        ("wire.resp_bytes", metric (mean_len (List.map J.to_string responses)) "bytes");
        ("cache.l1_hit_ratio", metric l1 "share");
        ("cache.l2_hit_ratio", metric l2 "share");
        ("cache.miss_ratio", metric miss "share");
        ("cache.memo_hit_ratio", metric (memo_hit_ratio warm) "share");
        ("cache.evictions", metric (float_of_int (all_delta warm "evictions")) "count");
        ("cache.invalidations", metric (float_of_int (all_delta warm "invalidations")) "count");
        ( "cache.bytes",
          metric (float_of_int (List.fold_left (fun a c -> a + gauge warm.cache_after c "bytes") 0 (classes warm.cache_after))) "bytes" );
        ("snapshot.load_ms", metric (snapshot_field "load_ms") "ms");
        ("snapshot.bytes", metric (snapshot_field "bytes") "bytes");
        ("sat.ms", metric (Stat.median (List.concat_map (fun f -> Option.value ~default:[] (List.assoc_opt f kern.by_family)) [ "sat.non_emptiness"; "sat.equivalence" ])) "ms");
        ("cq.containment_ms", metric (family_ms "cq.containment") "ms");
        ("cq.non_emptiness_ms", metric (family_ms "cq.non_emptiness") "ms");
        ("cq.eval_ms", metric (family_ms "cq.eval") "ms");
        ("afa.kchain_ms", metric (family_ms "afa.kchain") "ms");
        ("datalog.seminaive_ms", metric (family_ms "datalog.seminaive") "ms");
        ("datalog.tc_ms", metric (family_ms "datalog.tc") "ms");
        ("rewriting.compose_cq_ms", metric (family_ms "rewriting.compose_cq") "ms");
        ("travel.booked_ms", metric (family_ms "travel.booked") "ms");
        ("travel.booked_sequential_ms", metric (family_ms "travel.booked_sequential") "ms");
        ("engine.nodes_per_op", metric (per_op (float_of_int (Sws.Engine.Stats.nodes_expanded kern.stats)) kops) "count");
        ("engine.sat_calls_per_op", metric (per_op (float_of_int (Sws.Engine.Stats.sat_calls kern.stats)) kops) "count");
        ("engine.hom_checks_per_op", metric (per_op (float_of_int (Sws.Engine.Stats.hom_checks kern.stats)) kops) "count");
        ("gc.minor_words_per_op", metric (per_op kern.minor_words kops) "words");
        ("gc.major_collections", metric (float_of_int kern.major_collections) "count");
        ( "trace.overhead.op_p50_ms",
          metric (p50 traced_e2e -. p50 untraced_e2e) "ms" );
        ("trace.overhead.ops_per_s", metric (ops_per_s traced_e2e -. ops_per_s untraced_e2e) "1/s") ]
  in
  print_e2e "cold_mix/t" cold.e2e;
  print_e2e "warm_mix/t" warm.e2e;
  print_e2e "kernels/t" kern.k_e2e;
  print_e2e (kind_name o.kind ^ "/u") untraced_e2e;
  let attempted = cold.e2e.attempted + warm.e2e.attempted + kern.k_e2e.attempted in
  let failed = cold.e2e.failed + warm.e2e.failed + kern.k_e2e.failed in
  (metrics, attempted, failed)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let result_line ~attempted ~failed metrics =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool (failed = 0 && !problems = []));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics", J.Obj (List.map (fun (k, (v, u)) -> (k, J.Obj [ ("value", v); ("unit", J.String u) ])) metrics)) ])

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let main o =
  mkdir_p out_dir;
  (* In-process work runs on this thread alone: the library's parallel
     combinators run inline, as they do inside a swsd request. *)
  Par.Pool.set_jobs (Some 1);
  Printf.printf "perfbench %s seed %d, %.0f s, trace %b: nproc %d, swsd --jobs %d, %d clients\n%!"
    (kind_name o.kind) o.seed o.seconds o.trace nproc (jobs_for o.kind) clients;
  if o.trace then
    let metrics, attempted, failed = traced_run o in
    print_endline (result_line ~attempted ~failed metrics)
  else
    let e =
      match o.kind with
      | Cold_mix | Warm_mix -> (run_server ~o ~kind:o.kind ~meta:false ~seconds:o.seconds).e2e
      | Paper_kernels -> (run_kernels ~o ~traced:false ~seconds:o.seconds).k_e2e
    in
    print_e2e (kind_name o.kind) e;
    print_endline (result_line ~attempted:e.attempted ~failed:e.failed (e2e_metrics e))

let () =
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match parse_args (List.tl (Array.to_list Sys.argv)) with
  | exception Usage m ->
    prerr_endline ("perfbench: " ^ m);
    prerr_endline usage;
    exit 2
  | o -> (
    try main o with
    | e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      Proc.stop_all ();
      exit 1)
