module Key = struct
  type t = { fp : int; repr : string }

  let of_string repr = { fp = Repr.Fingerprint.of_string repr; repr }

  (* Length-prefixing makes the encoding injective on the part *list*:
     parts may be raw marshal bytes, so no separator byte is safe. *)
  let of_parts parts =
    of_string
      (String.concat ""
         (List.map
            (fun p -> string_of_int (String.length p) ^ ":" ^ p)
            parts))

  let make ~fp ~repr = { fp = fp land max_int; repr }
  let equal a b = a.fp = b.fp && String.equal a.repr b.repr
  let hash k = k.fp
end

module Gauges = struct
  type t = {
    hits : int;
    misses : int;
    evictions : int;
    entries : int;
    bytes : int;
  }

  let zero =
    { hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }

  let add a b =
    {
      hits = a.hits + b.hits;
      misses = a.misses + b.misses;
      evictions = a.evictions + b.evictions;
      entries = a.entries + b.entries;
      bytes = a.bytes + b.bytes;
    }

  (* Counters subtract; [entries]/[bytes] are levels, keep the latest. *)
  let delta ~before g =
    {
      hits = g.hits - before.hits;
      misses = g.misses - before.misses;
      evictions = g.evictions - before.evictions;
      entries = g.entries;
      bytes = g.bytes;
    }
end

module type VALUE = sig
  type t

  val weight : t -> int
end

(* Persisted (snapshot) form of a store's contents.  Value bytes are
   whatever the store's codec produced; the snapshot layer treats them as
   opaque payloads.  Entries are ordered LRU-first so replaying them
   through [add] reproduces the recency order. *)
type dumped_entry = {
  d_fp : int;
  d_repr : string;
  d_value : string;
}

type dumped_store = {
  d_tag : string;
      (* unique persistence tag.  NOT the class: several stores of
         *different* value types share a class (all five decision memos
         are cls "decision"), and decoding one store's bytes as another
         store's type would be memory-unsafe under Marshal.  The tag
         names exactly one (store, value-type, codec) triple. *)
  d_abi_sensitive : bool;
      (* true when the value bytes are only valid for the binary that
         wrote them (Marshal); false for self-describing codecs (JSON) *)
  d_entries : dumped_entry list; (* LRU first, MRU last *)
}

(* The registry sees stores through this closure record so stores of
   different value types coexist in one list.  Lock order: the registry
   mutex is only held around list reads/appends; per-store operations
   take only that store's own mutex.  No thread ever holds both except
   the registry iterators (snapshot/clear_all/set_caps/dump/restore),
   which acquire registry-then-store — and no store operation takes the
   registry mutex, so the order is acyclic. *)
type registered = {
  r_cls : string;
  r_gauges : unit -> Gauges.t;
  r_clear : unit -> unit;
  r_set_caps : ?max_entries:int -> ?max_bytes:int -> unit -> unit;
  r_reset_caps : unit -> unit;
  r_tag : unit -> string option;
  r_dump : unit -> dumped_store option;
  r_restore : dumped_store -> int;
}

let registry_mu = Mutex.create ()
let registry : registered list ref = ref []

let register r =
  Mutex.lock registry_mu;
  registry := r :: !registry;
  Mutex.unlock registry_mu

let registered () =
  Mutex.lock registry_mu;
  let rs = !registry in
  Mutex.unlock registry_mu;
  rs

module Make (V : VALUE) = struct
  type codec = {
    c_tag : string;
    c_abi : bool;
    c_enc : V.t -> string option;
    c_dec : string -> V.t option;
  }

  type node = {
    key : Key.t;
    mutable value : V.t;
    mutable weight : int;
    mutable prev : node option;  (* toward MRU *)
    mutable next : node option;  (* toward LRU *)
  }

  module Tbl = Hashtbl.Make (Key)

  type t = {
    mu : Mutex.t;
    tbl : node Tbl.t;
    mutable head : node option;  (* MRU *)
    mutable tail : node option;  (* LRU *)
    mutable bytes : int;
    mutable max_entries : int;
    mutable max_bytes : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable persist : codec option;
  }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* --- intrusive LRU list, all under [t.mu] --- *)

  let detach t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let drop t n =
    detach t n;
    Tbl.remove t.tbl n.key;
    t.bytes <- t.bytes - n.weight

  let evict_over_caps t =
    let rec go () =
      if Tbl.length t.tbl > t.max_entries || t.bytes > t.max_bytes then
        match t.tail with
        | None -> ()
        | Some lru ->
          drop t lru;
          t.evictions <- t.evictions + 1;
          go ()
    in
    go ()

  (* --- public API --- *)

  let entry_weight k v = String.length k.Key.repr + V.weight v + 64

  let find ?(validate = fun _ -> true) t k =
    locked t @@ fun () ->
    match Tbl.find_opt t.tbl k with
    | Some n when validate n.value ->
      detach t n;
      push_front t n;
      t.hits <- t.hits + 1;
      Some n.value
    | _ ->
      (* Absent, or resident but not servable for this request (e.g.
         computed under a smaller budget): a miss, though the entry
         stays — it may still serve an equal-or-larger request later. *)
      t.misses <- t.misses + 1;
      None

  let add t k v =
    locked t @@ fun () ->
    let w = entry_weight k v in
    (match Tbl.find_opt t.tbl k with
    | Some n ->
      t.bytes <- t.bytes + w - n.weight;
      n.value <- v;
      n.weight <- w;
      detach t n;
      push_front t n
    | None ->
      let n = { key = k; value = v; weight = w; prev = None; next = None } in
      Tbl.add t.tbl k n;
      t.bytes <- t.bytes + w;
      push_front t n);
    evict_over_caps t

  let remove t k =
    locked t @@ fun () ->
    match Tbl.find_opt t.tbl k with None -> () | Some n -> drop t n

  let clear t =
    locked t @@ fun () ->
    Tbl.reset t.tbl;
    t.head <- None;
    t.tail <- None;
    t.bytes <- 0

  let length t = locked t @@ fun () -> Tbl.length t.tbl

  let gauges t =
    locked t @@ fun () ->
    {
      Gauges.hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      entries = Tbl.length t.tbl;
      bytes = t.bytes;
    }

  let set_caps ?max_entries ?max_bytes t () =
    locked t @@ fun () ->
    (match max_entries with Some n -> t.max_entries <- max 0 n | None -> ());
    (match max_bytes with Some n -> t.max_bytes <- max 0 n | None -> ());
    evict_over_caps t

  (* --- persistence --- *)

  let set_codec ?(abi_sensitive = true) t ~tag ~encode ~decode =
    locked t @@ fun () ->
    t.persist <-
      Some { c_tag = tag; c_abi = abi_sensitive; c_enc = encode; c_dec = decode }

  let persist_tag t = locked t @@ fun () -> Option.map (fun c -> c.c_tag) t.persist

  let dump t =
    locked t @@ fun () ->
    match t.persist with
    | None -> None
    | Some c ->
      (* Walk the intrusive list tail -> head (LRU -> MRU) so that a
         restore replaying [add] front to back reproduces the recency
         order.  Encoding runs under the store mutex — snapshots are
         rare, and the codec must see a consistent entry set. *)
      let rec walk acc = function
        | None -> acc
        | Some n ->
          let acc =
            match c.c_enc n.value with
            | None -> acc (* unserializable value: skip, don't fail *)
            | Some bytes ->
              { d_fp = n.key.Key.fp; d_repr = n.key.Key.repr; d_value = bytes }
              :: acc
          in
          walk acc n.prev
      in
      let entries = List.rev (walk [] t.tail) in
      Some { d_tag = c.c_tag; d_abi_sensitive = c.c_abi; d_entries = entries }

  let restore t dumped =
    let codec = locked t (fun () -> t.persist) in
    match codec with
    | None -> 0
    | Some c ->
      (* [add] re-takes the mutex per entry and enforces both caps as it
         goes, so restoring a snapshot larger than [max_bytes] evicts
         from the LRU end instead of growing without bound. *)
      List.fold_left
        (fun n e ->
          match c.c_dec e.d_value with
          | None -> n (* undecodable bytes: skip, don't fail *)
          | Some v ->
            add t (Key.make ~fp:e.d_fp ~repr:e.d_repr) v;
            n + 1)
        0 dumped.d_entries

  let create ?(max_entries = 4096) ?(max_bytes = 32 * 1024 * 1024) ~cls () =
    let t =
      {
        mu = Mutex.create ();
        tbl = Tbl.create 256;
        head = None;
        tail = None;
        bytes = 0;
        max_entries;
        max_bytes;
        hits = 0;
        misses = 0;
        evictions = 0;
        persist = None;
      }
    in
    register
      {
        r_cls = cls;
        r_gauges = (fun () -> gauges t);
        r_clear = (fun () -> clear t);
        r_set_caps = (fun ?max_entries ?max_bytes () ->
          set_caps ?max_entries ?max_bytes t ());
        r_reset_caps = (fun () -> set_caps ~max_entries ~max_bytes t ());
        r_tag = (fun () -> persist_tag t);
        r_dump = (fun () -> dump t);
        r_restore = (fun d -> restore t d);
      };
    t
end

(* --- registry-wide views --- *)

let classes () =
  registered ()
  |> List.map (fun r -> r.r_cls)
  |> List.sort_uniq String.compare

let snapshot () =
  let rs = registered () in
  classes ()
  |> List.map (fun cls ->
         let g =
           List.fold_left
             (fun acc r ->
               if String.equal r.r_cls cls then Gauges.add acc (r.r_gauges ())
               else acc)
             Gauges.zero rs
         in
         (cls, g))

let total () =
  List.fold_left (fun acc (_, g) -> Gauges.add acc g) Gauges.zero (snapshot ())

let snapshot_delta ~before now =
  List.map
    (fun (cls, g) ->
      let b =
        match List.assoc_opt cls before with
        | Some b -> b
        | None -> Gauges.zero
      in
      (cls, Gauges.delta ~before:b g))
    now

let clear_all () = List.iter (fun r -> r.r_clear ()) (registered ())

let set_caps ?max_entries ?max_bytes () =
  List.iter (fun r -> r.r_set_caps ?max_entries ?max_bytes ()) (registered ())

let reset_caps () = List.iter (fun r -> r.r_reset_caps ()) (registered ())

(* --- registry-wide persistence --- *)

let dump_persistable () =
  List.filter_map (fun r -> r.r_dump ()) (registered ())
  |> List.sort (fun a b -> String.compare a.d_tag b.d_tag)

let restore_persistable dumps =
  let rs = registered () in
  List.filter_map
    (fun d ->
      (* Restore into the store carrying this exact tag; a dump whose tag
         no longer exists (the store was retired, or its codec was never
         installed in this process) is skipped, never misrouted into a
         store of a different value type. *)
      match
        List.find_opt
          (fun r ->
            match r.r_tag () with
            | Some tag -> String.equal tag d.d_tag
            | None -> false)
          rs
      with
      | None -> None
      | Some r -> Some (d.d_tag, r.r_restore d))
    dumps
