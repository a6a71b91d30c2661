(* Unions of conjunctive queries with <> (the language UCQ of the paper).
   The synthesis rules of SWS(CQ, UCQ) services are UCQ queries: the paper
   notes that without union in synthesis rules few interesting services can
   be specified (Section 2). *)

type t = {
  arity : int;
  disjuncts : Cq.t list;
}

let make = function
  | [] -> invalid_arg "Ucq.make: empty union (use make_empty)"
  | q :: _ as disjuncts ->
    let arity = Cq.head_arity q in
    if not (List.for_all (fun q -> Cq.head_arity q = arity) disjuncts) then
      invalid_arg "Ucq.make: disjuncts of different arities";
    { arity; disjuncts }

let make_empty arity = { arity; disjuncts = [] }

let of_cq q = { arity = Cq.head_arity q; disjuncts = [ q ] }

let arity u = u.arity

let disjuncts u = u.disjuncts

let union a b =
  if a.arity <> b.arity then invalid_arg "Ucq.union: arity mismatch";
  { a with disjuncts = a.disjuncts @ b.disjuncts }

let eval u db =
  List.fold_left
    (fun acc q -> Relation.union acc (Cq.eval q db))
    (Relation.empty u.arity) u.disjuncts

let schema_of u =
  List.fold_left
    (fun s q -> Schema.union s (Cq.schema_of q))
    Schema.empty u.disjuncts

(* UCQ containment: U1 is contained in U2 iff every disjunct of U1 is
   contained in the union U2.  With <>, each disjunct check ranges over
   Klug's partition test set (handled inside Cq.contained_in_many). *)
let contained_in u1 u2 =
  u1.arity = u2.arity
  && List.for_all (fun q -> Cq.contained_in_many q u2.disjuncts) u1.disjuncts

let equivalent u1 u2 = contained_in u1 u2 && contained_in u2 u1

(* A database where the two unions disagree, with the separating tuple. *)
let inequivalence_witness u1 u2 =
  let one_way a b =
    List.find_map
      (fun d -> Cq.non_containment_witness d (disjuncts b))
      (disjuncts a)
  in
  match one_way u1 u2 with
  | Some w -> Some w
  | None -> one_way u2 u1

(* Remove disjuncts contained in the rest (union minimization). *)
let minimize u =
  let rec go kept = function
    | [] -> List.rev kept
    | q :: rest ->
      if Cq.contained_in_many q (List.rev_append kept rest) then go kept rest
      else go (Cq.minimize q :: kept) rest
  in
  { u with disjuncts = go [] u.disjuncts }

let rename prefix u = { u with disjuncts = List.map (Cq.rename prefix) u.disjuncts }

let pp ppf u =
  match u.disjuncts with
  | [] -> Fmt.pf ppf "<empty union arity %d>" u.arity
  | ds -> Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@ UNION@ ") Cq.pp) ds
