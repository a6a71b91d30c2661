(* Seeded request streams for the two server workloads.

   A request carries its wire form (method and params) and its resolved
   content ([spec]), which is what [Check] verifies the answer against.
   Session [s] issues [get w s 0], [get w s 1], ... in a closed loop; the
   stream is a pure function of the seed and the index, however fast the
   daemon answers. *)

module J = Obs.Json

type spec =
  | Check of Re.t
  | Equiv of Re.t * Re.t
  | Kprefix of Re.t
  | Compose_or of Re.t * (string * Re.t) list  (** goal, labelled components *)
  | Compose_mdtb of Re.t * (string * Re.t) list
  | Register of string * Re.t

type req = { meth : string; params : J.t; spec : spec; body : string Lazy.t }

let req meth params spec =
  { meth; params; spec; body = lazy (J.to_string (J.String meth) ^ ",\"params\":" ^ J.to_string params) }

(* The request envelope, with the params rendered once per request. *)
let frame ~meta ~id r =
  String.concat ""
    [ "{\"id\":"; string_of_int id; ",\"method\":"; Lazy.force r.body;
      (if meta then ",\"meta\":true}" else "}") ]

(* A growable per-session request log, filled on demand. *)
type stream = { mutable items : req array; mutable len : int }

let push st r =
  if st.len = Array.length st.items then begin
    let a = Array.make (max 256 (2 * st.len)) r in
    Array.blit st.items 0 a 0 st.len;
    st.items <- a
  end;
  st.items.(st.len) <- r;
  st.len <- st.len + 1

type t = {
  name : string;
  prelude : req list;  (** sent on every session before the first op *)
  streams : stream array;
  refill : t -> unit;  (** appends at least one request to every stream *)
}

let rec get w s i =
  if i < w.streams.(s).len then w.streams.(s).items.(i)
  else begin
    w.refill w;
    get w s i
  end

let str r = J.String (Re.to_string r)

(* The mdtb budget: nodes and depth only, never wall time, so whether a
   request trips repeats exactly from run to run.  The plan space over one
   or two components fits in it; over three it mostly does not. *)
let mdtb_budget = J.Obj [ ("max_depth", J.Int 2); ("max_nodes", J.Int 120) ]

(* ------------------------------------------------------------------ *)
(* cold_mix: every request has unique content                          *)
(* ------------------------------------------------------------------ *)

let cold ~seed ~sessions =
  let rng = Random.State.make [| seed; 0xC01D |] in
  let seen = Hashtbl.create 4096 in
  (* a depth-3 tree no earlier request of this run has used *)
  let rec fresh ?(max_symbols = max_int) () =
    let r = Re.gen rng 3 in
    let k = Re.to_string r in
    if Hashtbl.mem seen k || Re.symbols r > max_symbols then fresh ~max_symbols ()
    else begin
      Hashtbl.add seen k ();
      r
    end
  in
  let rec fresh_variant r =
    let v = Re.variant rng r in
    let k = Re.to_string v in
    if Hashtbl.mem seen k then fresh_variant (Re.Alt (v, Re.Emp))
    else begin
      Hashtbl.add seen k ();
      v
    end
  in
  let inline_components n =
    List.init n (fun i ->
        let r = Re.gen rng 2 in
        (Printf.sprintf "V%d:%s" i (Re.to_string r), r))
  in
  let compose ~mode goal comps =
    J.Obj
      ([ ("goal", str goal);
         ("components", J.List (List.map (fun (_, r) -> str r) comps)) ]
      @
      match mode with
      | `Or -> []
      | `Mdtb -> [ ("mode", J.String "mdtb"); ("budget", mdtb_budget) ])
  in
  (* kinds take turns, so every run has the same mix *)
  let turn = ref 0 in
  let one () =
    incr turn;
    match !turn mod 5 with
    | 0 ->
      let r = fresh () in
      req "check" (J.Obj [ ("service", str r) ]) (Check r)
    | 1 ->
      (* a third are equivalent by construction; proving equivalence
         explores the whole product, so those pairs stay small *)
      let r, l =
        if Random.State.int rng 3 = 0 then
          let l = fresh ~max_symbols:4 () in
          (fresh_variant l, l)
        else
          let l = fresh () in
          (fresh (), l)
      in
      req "equivalence" (J.Obj [ ("left", str l); ("right", str r) ]) (Equiv (l, r))
    | 2 ->
      let r = fresh () in
      req "kprefix" (J.Obj [ ("service", str r) ]) (Kprefix r)
    | 3 ->
      let g = fresh () and cs = inline_components 2 in
      req "compose" (compose ~mode:`Or g cs) (Compose_or (g, cs))
    | _ ->
      let g = fresh () and cs = inline_components (1 + Random.State.int rng 3) in
      req "compose" (compose ~mode:`Mdtb g cs) (Compose_mdtb (g, cs))
  in
  let streams = Array.init sessions (fun _ -> { items = [||]; len = 0 }) in
  (* blocks are drawn for every session in a fixed order, so the shared
     uniqueness table never makes a stream depend on timing *)
  let refill w =
    Array.iter (fun st -> for _ = 1 to 128 do push st (one ()) done) w.streams
  in
  { name = "cold_mix"; prelude = []; streams; refill }

(* ------------------------------------------------------------------ *)
(* warm_mix: a skewed draw over a fixed working set                    *)
(* ------------------------------------------------------------------ *)

let num_components = 10

let component_name i = Printf.sprintf "w%d" i

let register name r =
  req "register" (J.Obj [ ("name", J.String name); ("spec", str r) ]) (Register (name, r))

let ref_ name = J.Obj [ ("ref", J.String name) ]

(* The working set (every read of the mix), the components it names, and
   the small set of mdtb requests whose node budget trips. *)
let warm_set ~seed =
  let rng = Random.State.make [| seed; 0x3A53 |] in
  let comps =
    Array.init num_components (fun i -> (component_name i, Re.gen rng (2 + (i mod 2))))
  in
  let c i = snd comps.(i) and n i = fst comps.(i) in
  let reads = ref [] in
  let add r = reads := r :: !reads in
  for i = 0 to num_components - 1 do
    add (req "check" (J.Obj [ ("service", ref_ (n i)) ]) (Check (c i)));
    add (req "kprefix" (J.Obj [ ("service", ref_ (n i)) ]) (Kprefix (c i)));
    for j = i + 1 to num_components - 1 do
      add (req "equivalence" (J.Obj [ ("left", ref_ (n i)); ("right", ref_ (n j)) ]) (Equiv (c i, c j)))
    done;
    for j = 0 to num_components - 1 do
      for k = j + 1 to num_components - 1 do
        if j <> i && k <> i && (i + j + k) mod 3 = 0 then
          add
            (req "compose"
               (J.Obj [ ("goal", ref_ (n i)); ("components", J.List [ ref_ (n j); ref_ (n k) ]) ])
               (Compose_or (c i, [ (n j, c j); (n k, c k) ])))
      done
    done
  done;
  let trips =
    List.init 4 (fun i ->
        let g = (i * 3) mod num_components and a = (i + 1) mod num_components in
        req "compose"
          (J.Obj
             [ ("goal", ref_ (n g)); ("components", J.List [ ref_ (n a) ]); ("mode", J.String "mdtb");
               ("budget", J.Obj [ ("max_nodes", J.Int 1) ]) ])
          (Compose_mdtb (c g, [ (n a, c a) ])))
  in
  (* a seeded rank order for the skewed draw *)
  let reads = Array.of_list (List.rev !reads) in
  for i = Array.length reads - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = reads.(i) in
    reads.(i) <- reads.(j);
    reads.(j) <- t
  done;
  (comps, reads, Array.of_list trips)

(* Share of ops that re-register a component (bumping the session's
   registry epoch) and share that run a tripping mdtb request. *)
let write_share = 0.05
let trip_share = 0.005

let warm ~seed ~sessions =
  let comps, reads, trips = warm_set ~seed in
  let prelude = Array.to_list (Array.map (fun (n, r) -> register n r) comps) in
  (* Zipf(0.6) over the ranks, by inverse CDF: skewed, yet no handful of
     requests (whose kinds change with the seed) makes up the median *)
  let cdf =
    let w = Array.mapi (fun i _ -> float_of_int (i + 1) ** -0.6) reads in
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.map (fun x -> acc := !acc +. (x /. total); !acc) w
  in
  let draw rng =
    let u = Random.State.float rng 1. in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    reads.(min (Array.length reads - 1) (find 0 (Array.length reads - 1)))
  in
  let rngs = Array.init sessions (fun s -> Random.State.make [| seed; 0x3A53; s |]) in
  let streams = Array.init sessions (fun _ -> { items = [||]; len = 0 }) in
  let refill w =
    Array.iteri
      (fun s st ->
        let rng = rngs.(s) in
        for _ = 1 to 256 do
          let u = Random.State.float rng 1. in
          push st
            (if u < write_share then
               let n, r = comps.(Random.State.int rng num_components) in
               register n r
             else if u < write_share +. trip_share then
               trips.(Random.State.int rng (Array.length trips))
             else draw rng)
        done)
      w.streams
  in
  { name = "warm_mix"; prelude; streams; refill }

(* Every distinct request of the warm mix, for the priming daemon. *)
let warm_priming ~seed =
  let comps, reads, trips = warm_set ~seed in
  (Array.to_list (Array.map (fun (n, r) -> register n r) comps), Array.to_list reads @ Array.to_list trips)
