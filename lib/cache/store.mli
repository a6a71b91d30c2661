(** Process-lifetime, domain-safe, bounded memo stores.

    One [Store] instance backs one cache class (["unfold"],
    ["decision"], ["server_l2"], ...).  Every instance is an LRU over
    exact canonical keys, capped both by entry count and by approximate
    resident bytes, and guarded by its own leaf mutex (see DESIGN.md
    §4h for the lock hierarchy: a store's mutex is acquired last and
    nothing is called while holding it).

    Keys pair a {!Repr.Fingerprint} hash with the exact canonical
    representation; lookups compare the representation, so a
    fingerprint collision costs a probe, never a wrong answer.

    All instances register themselves in a global registry so the
    server and CLI can snapshot per-class gauges, clear everything, or
    re-cap everything ([--cache-cap]). *)

module Key : sig
  type t = private { fp : int; repr : string }

  val of_string : string -> t
  (** Key over an exact canonical representation; the fingerprint is
      derived from it.  Callers are responsible for canonicalizing
      [repr] (sorted bindings, resolved references) so that equal
      inputs produce equal strings. *)

  val of_parts : string list -> t
  (** Key over a list of canonical parts, each length-prefixed so the
      encoding is injective whatever bytes the parts contain (marshal
      output may contain anything).  Convention: the first part tags
      the procedure, so stores shared by several procedures never mix
      their answers. *)

  val make : fp:int -> repr:string -> t
  (** Key with a precomputed fingerprint (e.g. mixed from interned ids
      while the canonical [repr] was being built). *)

  val equal : t -> t -> bool
  val hash : t -> int
end

module Gauges : sig
  type t = {
    hits : int;
    misses : int;
    evictions : int;
    entries : int;  (** resident entries (a level, not a counter) *)
    bytes : int;  (** approximate resident bytes (a level) *)
  }

  val zero : t
  val add : t -> t -> t

  val delta : before:t -> t -> t
  (** Counter fields subtract; level fields ([entries], [bytes]) keep
      the latest value. *)
end

module type VALUE = sig
  type t

  val weight : t -> int
  (** Approximate resident bytes of one value (keys add their own
      [repr] length on top). *)
end

(** {1 Persisted form}

    Stores opt into snapshot persistence by installing a codec
    ({!Make.set_codec}) under a process-unique {e tag}.  The tag — not
    the class — keys dump/restore routing: several stores of different
    value types may share a class, and decoding one store's bytes as
    another's type would be memory-unsafe under [Marshal]. *)

type dumped_entry = {
  d_fp : int;
  d_repr : string;
  d_value : string;  (** opaque codec output *)
}

type dumped_store = {
  d_tag : string;
  d_abi_sensitive : bool;
      (** [true] when the value bytes are only valid for the exact binary
          that wrote them (Marshal codecs); [false] for self-describing
          codecs (JSON).  The snapshot layer drops abi-sensitive sections
          when the loading binary differs from the writing one. *)
  d_entries : dumped_entry list;  (** LRU first, MRU last *)
}

module Make (V : VALUE) : sig
  type t

  val create : ?max_entries:int -> ?max_bytes:int -> cls:string -> unit -> t
  (** Defaults: 4096 entries, 32 MiB.  [cls] names the cache class the
      instance's gauges aggregate under; several stores may share a
      class. *)

  val find : ?validate:(V.t -> bool) -> t -> Key.t -> V.t option
  (** LRU-touching lookup.  With [~validate], a resident entry the
      predicate rejects counts as a miss and is returned as [None] — but
      stays resident, untouched in LRU order, because it may satisfy a
      later request (e.g. an answer computed under a small budget
      awaiting an equal-or-larger request), or be overwritten by the
      caller's recompute (e.g. a server reply computed against an older
      component registry). *)

  val add : t -> Key.t -> V.t -> unit
  (** Insert or overwrite at the MRU end, then evict from the LRU end
      until both caps hold. *)

  val remove : t -> Key.t -> unit
  val clear : t -> unit
  val length : t -> int
  val gauges : t -> Gauges.t

  val set_codec :
    ?abi_sensitive:bool ->
    t ->
    tag:string ->
    encode:(V.t -> string option) ->
    decode:(string -> V.t option) ->
    unit
  (** Opt this store into snapshot persistence.  [tag] must be unique
      process-wide (convention: ["layer/store"], e.g.
      ["decision/pl_word"]).  [encode] returns [None] for values that
      cannot be serialized (they are skipped, not fatal); [decode]
      returns [None] for bytes it cannot decode (skipped on restore).
      [abi_sensitive] defaults to [true] — set [false] only for
      self-describing codecs valid across binaries. *)

  val persist_tag : t -> string option
  (** The installed codec's tag, if any. *)

  val dump : t -> dumped_store option
  (** Entries LRU-first under the installed codec; [None] when no codec
      is installed.  Unserializable values are silently skipped. *)

  val restore : t -> dumped_store -> int
  (** Decode and [add] each entry in order (LRU-first replay reproduces
      recency), enforcing both caps as it goes — restoring a snapshot
      larger than [max_bytes] evicts from the LRU end rather than
      growing without bound.  Returns the number of entries restored.
      No-op ([0]) when no codec is installed. *)
end

(** {1 Global registry} *)

val classes : unit -> string list
(** Sorted, deduplicated class names of all live stores. *)

val snapshot : unit -> (string * Gauges.t) list
(** Per-class aggregated gauges, sorted by class name. *)

val total : unit -> Gauges.t

val snapshot_delta :
  before:(string * Gauges.t) list ->
  (string * Gauges.t) list ->
  (string * Gauges.t) list
(** Pointwise {!Gauges.delta} by class name; classes missing from
    [before] count from zero. *)

val clear_all : unit -> unit
(** Empty every registered store (gauge counters are kept). *)

val set_caps : ?max_entries:int -> ?max_bytes:int -> unit -> unit
(** Re-cap every registered store, evicting immediately if the new caps
    are already exceeded.  Omitted caps are left unchanged. *)

val reset_caps : unit -> unit
(** Give every registered store back the caps it was created with. *)

val dump_persistable : unit -> dumped_store list
(** Dump every store with an installed codec, sorted by tag. *)

val restore_persistable : dumped_store list -> (string * int) list
(** Route each dump to the live store carrying its exact tag and restore
    it; dumps whose tag matches no live store are skipped.  Returns
    [(tag, entries_restored)] for each dump that found its store. *)
