(* Data values from the infinite domain [D] of the paper (Section 2).
   Databases, input messages and actions all range over this domain.

   [Frozen] values are the labelled nulls produced when freezing a query
   into its canonical database (Klug's containment test); they are a
   separate constructor so no user string can collide with them — the old
   "@f%d" string encoding misclassified any user value starting with '@'.

   Every value can be interned to a dense int id through the global
   {!Repr.Symtab} table: [id]/[of_id] are injective inverses, so id equality
   coincides with [equal] and the relational layer stores packed id tuples
   internally. *)

type t =
  | Int of int
  | Str of string
  | Frozen of int

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Frozen x, Frozen y -> Int.compare x y
  | Int _, (Str _ | Frozen _) -> -1
  | (Str _ | Frozen _), Int _ -> 1
  | Str _, Frozen _ -> -1
  | Frozen _, Str _ -> 1

let equal a b = compare a b = 0

(* Mix the constructor tag in additively rather than hashing a (tag, x)
   pair: [Hashtbl.hash] on a fresh tuple allocates it first, and this
   function sits on the interning fast path of every tuple operation. *)
let hash = function
  | Int x -> Hashtbl.hash x
  | Str s -> (Hashtbl.hash s + 0x531) land max_int
  | Frozen k -> (Hashtbl.hash k + 0x9e37) land max_int

let int i = Int i
let str s = Str s

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.string ppf s
  | Frozen k -> Fmt.pf ppf "@f%d" k

let to_string v = Fmt.str "%a" pp v

(* Scoped supplies of labelled nulls.  Two values from one supply are
   distinct; values from different supplies may collide, so every procedure
   that accumulates canonical databases must thread a single supply through
   all of its freezes (Cq.contained_in_many, Decision.cq_validation). *)
module Fresh = struct
  (* Atomic so a supply used from more than one domain never mints the
     same null twice (a lost increment would alias two distinct frozen
     constants and make containment tests spuriously succeed). *)
  type supply = int Atomic.t

  let supply () = Atomic.make 0

  let next s = Frozen (Atomic.fetch_and_add s 1)
end

let is_frozen = function Frozen _ -> true | Int _ | Str _ -> false

(* ------------------------------------------------------------------ *)
(* Interning                                                          *)
(* ------------------------------------------------------------------ *)

module Tab = Repr.Symtab.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Frozen values bypass the table: a labelled null is already a dense int,
   so its id is drawn from the negative range [-(k+1)].  [Cq.partitions]
   mints fresh nulls by the hundred thousand, and a table probe per mint
   dominates its enumeration; arithmetic is free.  The two ranges are
   disjoint, so id equality still coincides with [equal]. *)
let id = function
  | Frozen k -> -k - 1
  | v -> Tab.intern Tab.global v

let of_id i = if i < 0 then Frozen (-i - 1) else Tab.extern Tab.global i

let interner_size () = Tab.size Tab.global

(* Snapshot support: the persisted form of the id space is simply every
   interned value in id order.  [Frozen] values never appear — they live in
   the negative arithmetic range and never reach the table — so a snapshot
   holds only [Int]/[Str] values and id stability reduces to re-interning
   the dump front to back. *)
let interner_dump () = Tab.dump Tab.global
