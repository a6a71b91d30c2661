(* See metrics.mli. *)

(* ------------------------------------------------------------------ *)
(* The global switch                                                   *)
(* ------------------------------------------------------------------ *)

let switch = Atomic.make true
let set_enabled b = Atomic.set switch b
let enabled () = Atomic.get switch

(* ------------------------------------------------------------------ *)
(* Name validation                                                     *)
(* ------------------------------------------------------------------ *)

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

let valid_metric_name s =
  String.length s > 0
  && (let c = s.[0] in
      is_alpha c || c = '_' || c = ':')
  && String.for_all (fun c -> is_alpha c || is_digit c || c = '_' || c = ':') s

let valid_label_name s =
  String.length s > 0
  && (let c = s.[0] in
      is_alpha c || c = '_')
  && String.for_all (fun c -> is_alpha c || is_digit c || c = '_') s
  && not (String.length s >= 2 && s.[0] = '_' && s.[1] = '_')

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  (* One plain [int ref] per domain; [inc] is a shard lookup plus an
     unsynchronised store.  Negative increments are dropped — counters
     are monotone by contract, and a buggy caller must not be able to
     make a scrape go backwards. *)
  type t = int ref Par.Shard.t

  let make () = Par.Shard.create (fun () -> ref 0)

  let inc ?(by = 1) t =
    if by > 0 && Atomic.get switch then begin
      let r = Par.Shard.get t in
      r := !r + by
    end

  let value t = Par.Shard.fold (fun acc r -> acc + !r) 0 t
end

module Gauge = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let set t v = if Atomic.get switch then Atomic.set t v
  let add t v = if Atomic.get switch then ignore (Atomic.fetch_and_add t v)
  let sub t v = add t (-v)
  let value t = Atomic.get t
end

module Histogram = struct
  type t = Trace.Hist.t Par.Shard.t

  let make () = Par.Shard.create Trace.Hist.create

  let observe t v =
    if Atomic.get switch then Trace.Hist.observe (Par.Shard.get t) v

  let snapshot t =
    Par.Shard.fold (fun acc h -> Trace.Hist.merge acc h) (Trace.Hist.create ()) t
end

(* ------------------------------------------------------------------ *)
(* Families and the registry                                           *)
(* ------------------------------------------------------------------ *)

type kind = KCounter | KGauge | KHistogram

type child =
  | C of Counter.t
  | G of Gauge.t
  | GF of (unit -> int)
  | H of Histogram.t

type family = {
  name : string;
  help : string;
  kind : kind;
  mutable children : ((string * string) list * child) list;
      (* (sorted label binding, child), reverse creation order *)
}

type t = { lock : Mutex.t; mutable families : family list (* reverse order *) }

let create () = { lock = Mutex.create (); families = [] }

let kind_string = function
  | KCounter -> "counter"
  | KGauge -> "gauge"
  | KHistogram -> "histogram"

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let check_name name =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name)

let check_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Metrics: invalid label name %S on metric %S" k name))
    labels;
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg
          (Printf.sprintf "Metrics: duplicate label %S on metric %S" a name)
      else dup rest
    | _ -> ()
  in
  dup labels

(* Get-or-create a family, then get-or-create the child for [labels] via
   [fresh].  The whole operation holds the registry mutex — registration
   is a startup-time path; the returned handle is the lock-free one. *)
let register t ~kind ~help ~labels name fresh =
  check_name name;
  let labels = canonical_labels labels in
  check_labels name labels;
  Mutex.protect t.lock (fun () ->
      let fam =
        match
          List.find_opt (fun f -> String.equal f.name name) t.families
        with
        | Some f ->
          if f.kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %S already registered as a %s" name
                 (kind_string f.kind));
          f
        | None ->
          let f = { name; help; kind; children = [] } in
          t.families <- f :: t.families;
          f
      in
      (match fam.children with
      | (existing, _) :: _ ->
        if List.map fst existing <> List.map fst labels then
          invalid_arg
            (Printf.sprintf
               "Metrics: %S children must share one label-name set" name)
      | [] -> ());
      match List.assoc_opt labels fam.children with
      | Some child -> child
      | None ->
        let child = fresh () in
        fam.children <- (labels, child) :: fam.children;
        child)

let counter t ?(help = "") ?(labels = []) name =
  match register t ~kind:KCounter ~help ~labels name (fun () -> C (Counter.make ())) with
  | C c -> c
  | _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~kind:KGauge ~help ~labels name (fun () -> G (Gauge.make ())) with
  | G g -> g
  | _ -> assert false

let gauge_fn t ?(help = "") ?(labels = []) name f =
  ignore (register t ~kind:KGauge ~help ~labels name (fun () -> GF f))

let histogram t ?(help = "") ?(labels = []) name =
  match
    register t ~kind:KHistogram ~help ~labels name (fun () -> H (Histogram.make ()))
  with
  | H h -> h
  | _ -> assert false

(* Families in registration order, children in creation order — a stable
   scrape layout, independent of which domains bumped what. *)
let families t =
  Mutex.protect t.lock (fun () ->
      List.rev_map (fun f -> (f, List.rev f.children)) t.families)

let eval_gauge_fn f = try f () with _ -> 0

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let child_json (labels, child) =
  let base = [ ("labels", labels_json labels) ] in
  match child with
  | C c -> Json.Obj (base @ [ ("value", Json.Int (Counter.value c)) ])
  | G g -> Json.Obj (base @ [ ("value", Json.Int (Gauge.value g)) ])
  | GF f -> Json.Obj (base @ [ ("value", Json.Int (eval_gauge_fn f)) ])
  | H h ->
    let m = Histogram.snapshot h in
    let q p = Json.Int (Trace.Hist.quantile m p) in
    Json.Obj
      (base
      @ [
          ("count", Json.Int (Trace.Hist.count m));
          ("sum_ns", Json.Int (Trace.Hist.sum_ns m));
          ("p50_ns", q 0.50);
          ("p95_ns", q 0.95);
          ("p99_ns", q 0.99);
          ( "buckets",
            Json.List
              (List.map
                 (fun (i, c) ->
                   let lo, _ = Trace.Hist.bucket_bounds i in
                   Json.Obj
                     [
                       ("index", Json.Int i);
                       ("lo_ns", Json.Int lo);
                       ("count", Json.Int c);
                     ])
                 (Trace.Hist.buckets m)) );
        ])

let to_json t =
  Json.Obj
    [
      ( "families",
        Json.List
          (List.map
             (fun (f, children) ->
               Json.Obj
                 [
                   ("name", Json.String f.name);
                   ("kind", Json.String (kind_string f.kind));
                   ("help", Json.String f.help);
                   ("series", Json.List (List.map child_json children));
                 ])
             (families t)) );
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let expose_name name kind =
  match kind with
  | `Counter ->
    let suffix = "_total" in
    let n = String.length name and sn = String.length suffix in
    if n >= sn && String.equal (String.sub name (n - sn) sn) suffix then name
    else name ^ suffix
  | `Gauge | `Histogram -> name

let expose_kind = function
  | KCounter -> `Counter
  | KGauge -> `Gauge
  | KHistogram -> `Histogram

let label_block buf labels =
  match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let sample buf name labels value =
  Buffer.add_string buf name;
  label_block buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int value);
  Buffer.add_char buf '\n'

let to_prometheus t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f, children) ->
      let ename = expose_name f.name (expose_kind f.kind) in
      if not (String.equal f.help "") then begin
        Buffer.add_string buf "# HELP ";
        Buffer.add_string buf ename;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (escape_help f.help);
        Buffer.add_char buf '\n'
      end;
      Buffer.add_string buf "# TYPE ";
      Buffer.add_string buf ename;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (kind_string f.kind);
      Buffer.add_char buf '\n';
      List.iter
        (fun (labels, child) ->
          match child with
          | C c -> sample buf ename labels (Counter.value c)
          | G g -> sample buf ename labels (Gauge.value g)
          | GF fn -> sample buf ename labels (eval_gauge_fn fn)
          | H h ->
            (* Cumulative buckets at the nonzero log-2 boundaries plus
               +Inf; [le] bounds are the buckets' exclusive upper bounds
               in ns, so the cumulative counts are exact for them. *)
            let m = Histogram.snapshot h in
            let cumulative = ref 0 in
            List.iter
              (fun (i, c) ->
                cumulative := !cumulative + c;
                let _, hi = Trace.Hist.bucket_bounds i in
                sample buf (ename ^ "_bucket")
                  (labels @ [ ("le", string_of_int hi) ])
                  !cumulative)
              (Trace.Hist.buckets m);
            sample buf (ename ^ "_bucket")
              (labels @ [ ("le", "+Inf") ])
              (Trace.Hist.count m);
            sample buf (ename ^ "_sum") labels (Trace.Hist.sum_ns m);
            sample buf (ename ^ "_count") labels (Trace.Hist.count m))
        children)
    (families t);
  Buffer.contents buf
