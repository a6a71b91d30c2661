(* A cell keeps its per-domain instances itself: an immutable record of
   parallel arrays (domain ids, instances) in creation order, published
   through an [Atomic.t].  [get] is one atomic load and a scan of as many
   entries as domains have touched the cell (the owner's is first).  A
   domain's first [get] appends its instance with a compare-and-set on a
   copy; only that domain ever registers its id, so a lost race just
   retries the append and no entry is lost or doubled.  Everything lives
   in the cell, so a dropped cell is garbage as a whole (a
   domain-local-storage key per cell would pin the creating domain's
   instance until that domain exits). *)

type 'a slots = { ids : int array; vals : 'a array }
type 'a t = { slots : 'a slots Atomic.t; fresh : unit -> 'a }

let rec register t id v =
  let s = Atomic.get t.slots in
  let s' = { ids = Array.append s.ids [| id |]; vals = Array.append s.vals [| v |] } in
  if Atomic.compare_and_set t.slots s s' then v else register t id v

let get t =
  let id = (Domain.self () :> int) in
  let s = Atomic.get t.slots in
  let n = Array.length s.ids in
  let rec find i =
    if i = n then register t id (t.fresh ())
    else if Array.unsafe_get s.ids i = id then Array.unsafe_get s.vals i
    else find (i + 1)
  in
  find 0

let create fresh =
  let t = { slots = Atomic.make { ids = [||]; vals = [||] }; fresh } in
  ignore (get t);
  t

let owner t = (Atomic.get t.slots).vals.(0)

let fold f init t = Array.fold_left f init (Atomic.get t.slots).vals

let iter f t = Array.iter f (Atomic.get t.slots).vals
