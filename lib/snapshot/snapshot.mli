(** Versioned binary snapshots of the interned world: warm starts for
    [swsd] and repeated [swscli] invocations (ROADMAP item 5, DESIGN.md
    §4k).

    A snapshot persists the state every process start otherwise rebuilds
    from text — the global {!Relational.Value} interner (SYMS section),
    relation contents as packed id arrays (RELS), a session's component
    registry (COMP), and the persistable cache stores (CACH).  The format
    is length-prefixed, little-endian, hand-rolled (no [Marshal] in the
    core sections) and digest-verified per section; loading a truncated,
    corrupted or version-skewed file returns [Error], never raises, and
    never half-applies. *)

(** Raised internally by the codec; [save]/[load] catch it and surface
    [Error].  Exposed so tests can pattern-match wire-level failures. *)
exception Corrupt of string

val format_version : int
(** [2]: COMP holds the component registry alone and a CACH entry is
    (fingerprint, repr, value).  A file of any other version is refused
    at [load], so a daemon given one starts cold. *)

(** Low-level codec, exposed for property tests. *)
module Wire : sig
  module W : sig
    type t

    val create : unit -> t
    val contents : t -> string
    val u8 : t -> int -> unit
    val u32 : t -> int -> unit
    val i64 : t -> int -> unit
    val str : t -> string -> unit
    val int_array : t -> int array -> unit
  end

  module R : sig
    type t

    val of_string : ?pos:int -> ?len:int -> string -> t
    val u8 : t -> int
    val u32 : t -> int
    val i64 : t -> int
    val str : t -> string
    val int_array : t -> int array
    val remaining : t -> int
    val expect_end : t -> unit
  end

  (** Word-at-a-time FNV digest used for section integrity. *)
  val digest : string -> int
end

type info = {
  i_path : string;
  i_version : int;
  i_bytes : int;  (** whole file size *)
  i_digest : int;  (** fingerprint over all section digests *)
  i_sections : (string * int) list;  (** tag -> payload bytes *)
}

type contents = {
  c_symtab : int;  (** interned values restored/verified *)
  c_relations : (string * Relational.Relation.t) list;
  c_components : (string * string) list option;
      (** the [(name, spec)] component registry, in registration order *)
  c_caches : (string * int) list;  (** persistence tag -> entries restored *)
  c_caches_skipped : string list;
      (** tags dropped: abi-sensitive bytes from another binary, or no
          live store carries the tag in this process *)
}

val save :
  ?relations:(string * Relational.Relation.t) list ->
  ?components:(string * string) list ->
  ?caches:bool ->
  path:string ->
  unit ->
  (info, string) result
(** Write a snapshot: always the full interner (SYMS — the id space must
    be dense to replay), plus the given relations/components and, when
    [caches] (default [true]), every cache store with an installed
    persistence codec.  The file is assembled in one buffer, written to
    [path ^ ".tmp"] and renamed into place, so a crashed writer never
    leaves a half-snapshot at [path]. *)

val load : path:string -> (info * contents, string) result
(** Verify framing and per-section digests, then (in this order)
    re-establish the id space (failing on any id drift), bulk-rebuild
    relations, decode components, and restore eligible cache stores
    through their normal [add] path — caps and LRU eviction apply, so a
    snapshot larger than a store's byte cap evicts rather than growing
    without bound. *)
