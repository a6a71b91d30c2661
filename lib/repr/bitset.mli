(** Packed int-array bit sets over small non-negative ints.

    The state-set representation of the automata layer: normalized word
    arrays with O(words) union/intersection, O(1) cached hashing, and a
    total order, so subset-construction frontiers can key hash tables on
    whole state sets.  Argument orders follow [Set.S] ([mem x s], [add x s],
    [fold f s init]) so call sites read the same as with [Set.Make (Int)].

    Values are immutable: every operation returns a (possibly shared)
    normalized set.  Normalization (no trailing zero word) makes [equal],
    [compare] and [hash] independent of the capacity a set was built with. *)

type t

val empty : t
val singleton : int -> t

(** [mem i s] is false for negative [i]; [add]/[singleton] reject them. *)
val mem : int -> t -> bool

val add : int -> t -> t
val remove : int -> t -> t
val is_empty : t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [intersects a b] is [not (is_empty (inter a b))] without allocating. *)
val intersects : t -> t -> bool

val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** Computed on first use, cached thereafter (sets are immutable). *)
val hash : t -> int

val cardinal : t -> int
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (int -> unit) -> t -> unit

(** Ascending. *)
val elements : t -> int list

val of_list : int list -> t

(** [shift k s] is [{ i + k | i in s }]; [k] must be non-negative. *)
val shift : int -> t -> t

val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool
val choose_opt : t -> int option

(** {1 Accumulators}

    A mutable scratch buffer for building one set out of many ORs and
    single bits: every [acc_union]/[acc_add] writes in place, and
    [acc_finish] materializes the normalized result with one allocation
    (none when a single set was added: that set itself comes back) and
    resets the buffer for reuse.  An accumulator belongs to the call
    that created it; it is never shared between domains. *)

type acc

(** [capacity] is a hint: the largest element expected (the buffer
    grows on demand either way). *)
val acc_create : ?capacity:int -> unit -> acc

val acc_add : acc -> int -> unit
val acc_union : acc -> t -> unit

(** The accumulated set, normalized; the accumulator is empty afterwards. *)
val acc_finish : acc -> t

(** Process-wide count of word arrays materialized so far — a churn gauge
    for ablation reports, not part of any set's value. *)
val allocations : unit -> int

val reset_allocations : unit -> unit
val pp : Format.formatter -> t -> unit
