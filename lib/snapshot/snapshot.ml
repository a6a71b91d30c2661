(* Versioned binary snapshots of the interned world (ROADMAP item 5).

   A snapshot persists exactly the state every process start today rebuilds
   from text: the global [Value] interner (the id space), relation contents
   as packed id arrays, a session's component registry, and the persistable
   cache stores.  The format is hand-rolled and length-prefixed — *no*
   Marshal for the core sections — so the layout is stable across binaries
   and every field can be bounds-checked and digest-verified before any of
   it is trusted.

   File layout (all integers little-endian):

     magic "SWSNAP01" (8 bytes)
     u32 format_version
     u32 section_count
     section*:  str tag ("SYMS"|"RELS"|"COMP"|"CACH"; unknown tags skipped)
                str payload (u32 length prefix + bytes)
                i64 digest of payload ({!Wire.digest})

   Id stability: SYMS is the whole interner in id order, so a fresh process
   re-interning it front to back reassigns id [i] to entry [i] — verified
   entry by entry at load, because every fingerprinted cache key and every
   packed id in RELS/CACH is only meaningful under exactly that mapping.

   Cache bytes are routed by persistence *tag* (see [Cache.Store]); stores
   whose codec is Marshal-based are stamped abi-sensitive and are dropped —
   never decoded — when the loading binary differs from the writing one. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "SWSNAP01"
let format_version = 2

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  module W = struct
    type t = Buffer.t

    let create () = Buffer.create (64 * 1024)
    let contents = Buffer.contents

    let u8 b v =
      if v < 0 || v > 0xff then corrupt "u8 out of range: %d" v;
      Buffer.add_char b (Char.chr v)

    let u32 b v =
      if v < 0 || v > 0xFFFFFFFF then corrupt "u32 out of range: %d" v;
      Buffer.add_int32_le b (Int32.of_int v)

    (* OCaml ints are 63-bit, so every value round-trips through int64. *)
    let i64 b v = Buffer.add_int64_le b (Int64.of_int v)

    let str b s =
      u32 b (String.length s);
      Buffer.add_string b s

    let int_array b a =
      u32 b (Array.length a);
      Array.iter (fun v -> i64 b v) a
  end

  module R = struct
    type t = { buf : string; mutable pos : int; limit : int }

    let of_string ?(pos = 0) ?len buf =
      let limit =
        match len with Some l -> pos + l | None -> String.length buf
      in
      if pos < 0 || limit > String.length buf || pos > limit then
        corrupt "reader bounds out of range";
      { buf; pos; limit }

    let need r n =
      if n < 0 || r.pos + n > r.limit then
        corrupt "truncated: need %d bytes at offset %d of %d" n r.pos r.limit

    let u8 r =
      need r 1;
      let v = Char.code r.buf.[r.pos] in
      r.pos <- r.pos + 1;
      v

    let u32 r =
      need r 4;
      let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
      r.pos <- r.pos + 4;
      v

    let i64 r =
      need r 8;
      let v64 = String.get_int64_le r.buf r.pos in
      r.pos <- r.pos + 8;
      let v = Int64.to_int v64 in
      if Int64.of_int v <> v64 then
        corrupt "i64 at offset %d exceeds the native int range" (r.pos - 8);
      v

    let str r =
      let n = u32 r in
      need r n;
      let s = String.sub r.buf r.pos n in
      r.pos <- r.pos + n;
      s

    let int_array r =
      let n = u32 r in
      (* bound the allocation *before* Array.make: a corrupt length must
         fail the digest-sized [need], not OOM the process *)
      need r (8 * n);
      let a = Array.make n 0 in
      for i = 0 to n - 1 do
        a.(i) <- i64 r
      done;
      a

    let remaining r = r.limit - r.pos
    let expect_end r = if r.pos <> r.limit then corrupt "trailing bytes"
  end

  (* Section digest: FNV over 8-byte words.  [Fingerprint.string] mixes
     byte by byte (~3 multiplies per byte) and would rival the very parse
     a warm start replaces on multi-MB sections; folding whole 64-bit
     words through [Fingerprint.int] is ~8x cheaper for the same
     integrity guarantee. *)
  let digest s =
    let n = String.length s in
    let words = n / 8 in
    let acc = ref (Repr.Fingerprint.int Repr.Fingerprint.seed n) in
    for i = 0 to words - 1 do
      acc :=
        Repr.Fingerprint.int !acc
          (Int64.to_int (String.get_int64_le s (i * 8)) land max_int)
    done;
    for i = words * 8 to n - 1 do
      acc := Repr.Fingerprint.char !acc s.[i]
    done;
    Repr.Fingerprint.finish !acc
end

(* ------------------------------------------------------------------ *)
(* ABI stamp                                                           *)
(* ------------------------------------------------------------------ *)

(* Identifies "the exact binary that wrote the file" for abi-sensitive
   (Marshal-coded) cache sections.  A digest of the executable is the
   strictest correct stamp: any rebuild invalidates marshaled bytes, and
   false invalidation only costs a cold cache, never a wrong decode. *)
let abi_stamp =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with _ -> "ocaml-" ^ Sys.ocaml_version)

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let tag_syms = "SYMS"
let tag_rels = "RELS"
let tag_comp = "COMP"
let tag_cach = "CACH"

let encode_syms () =
  let b = Wire.W.create () in
  let vals = Relational.Value.interner_dump () in
  Wire.W.u32 b (Array.length vals);
  Array.iter
    (fun v ->
      match (v : Relational.Value.t) with
      | Int i ->
        Wire.W.u8 b 0;
        Wire.W.i64 b i
      | Str s ->
        Wire.W.u8 b 1;
        Wire.W.str b s
      | Frozen _ ->
        (* Frozen ids live in the negative arithmetic range and never
           enter the table; one here is an interner bug, not bad input. *)
        corrupt "frozen value in interner dump")
    vals;
  Wire.W.contents b

(* Re-intern front to back and verify every id lands where the snapshot
   says it must.  In a fresh process this *assigns* 0..n-1; in a warm one
   it *finds* them.  Any drift means fingerprint keys and packed ids in
   the rest of the file are meaningless, so it fails the whole load. *)
let decode_syms payload =
  let r = Wire.R.of_string payload in
  let n = Wire.R.u32 r in
  for i = 0 to n - 1 do
    let v =
      match Wire.R.u8 r with
      | 0 -> Relational.Value.Int (Wire.R.i64 r)
      | 1 -> Relational.Value.Str (Wire.R.str r)
      | t -> corrupt "SYMS: unknown value tag %d" t
    in
    let id = Relational.Value.id v in
    if id <> i then
      corrupt "SYMS: id drift: %s interned to %d, snapshot position %d"
        (Relational.Value.to_string v)
        id i
  done;
  Wire.R.expect_end r;
  n

let encode_rels relations =
  let b = Wire.W.create () in
  Wire.W.u32 b (List.length relations);
  List.iter
    (fun (name, rel) ->
      Wire.W.str b name;
      Wire.W.u32 b (Relational.Relation.arity rel);
      Wire.W.u32 b (Relational.Relation.cardinal rel);
      let ids = Relational.Relation.dump rel in
      Array.iter (fun id -> Wire.W.i64 b id) ids)
    relations;
  Wire.W.contents b

let decode_rels payload =
  let r = Wire.R.of_string payload in
  let count = Wire.R.u32 r in
  let rels = ref [] in
  for _ = 1 to count do
    let name = Wire.R.str r in
    let arity = Wire.R.u32 r in
    let n = Wire.R.u32 r in
    let len = arity * n in
    Wire.R.need r (8 * len);
    let ids = Array.make len 0 in
    for i = 0 to len - 1 do
      ids.(i) <- Wire.R.i64 r
    done;
    rels := (name, Relational.Relation.of_packed ~arity ~n ids) :: !rels
  done;
  Wire.R.expect_end r;
  List.rev !rels

let encode_comp comps =
  let b = Wire.W.create () in
  Wire.W.u32 b (List.length comps);
  List.iter
    (fun (name, spec) ->
      Wire.W.str b name;
      Wire.W.str b spec)
    comps;
  Wire.W.contents b

let decode_comp payload =
  let r = Wire.R.of_string payload in
  let count = Wire.R.u32 r in
  let comps = ref [] in
  for _ = 1 to count do
    let name = Wire.R.str r in
    let spec = Wire.R.str r in
    comps := (name, spec) :: !comps
  done;
  Wire.R.expect_end r;
  List.rev !comps

let encode_cach () =
  let b = Wire.W.create () in
  Wire.W.str b (Lazy.force abi_stamp);
  let dumps = Cache.Store.dump_persistable () in
  Wire.W.u32 b (List.length dumps);
  List.iter
    (fun (d : Cache.Store.dumped_store) ->
      Wire.W.str b d.d_tag;
      Wire.W.u8 b (if d.d_abi_sensitive then 1 else 0);
      Wire.W.u32 b (List.length d.d_entries);
      List.iter
        (fun (e : Cache.Store.dumped_entry) ->
          Wire.W.i64 b e.d_fp;
          Wire.W.str b e.d_repr;
          Wire.W.str b e.d_value)
        d.d_entries)
    dumps;
  Wire.W.contents b

let decode_cach payload =
  let r = Wire.R.of_string payload in
  let file_abi = Wire.R.str r in
  let self_abi = Lazy.force abi_stamp in
  let count = Wire.R.u32 r in
  let eligible = ref [] and skipped = ref [] in
  for _ = 1 to count do
    let tag = Wire.R.str r in
    let abi_sensitive = Wire.R.u8 r = 1 in
    let n = Wire.R.u32 r in
    let entries = ref [] in
    for _ = 1 to n do
      let d_fp = Wire.R.i64 r in
      let d_repr = Wire.R.str r in
      let d_value = Wire.R.str r in
      entries := { Cache.Store.d_fp; d_repr; d_value } :: !entries
    done;
    if abi_sensitive && not (String.equal file_abi self_abi) then
      (* written by a different binary: Marshal bytes must not even be
         offered to the decoder *)
      skipped := tag :: !skipped
    else
      eligible :=
        {
          Cache.Store.d_tag = tag;
          d_abi_sensitive = abi_sensitive;
          d_entries = List.rev !entries;
        }
        :: !eligible
  done;
  Wire.R.expect_end r;
  let eligible = List.rev !eligible in
  let restored = Cache.Store.restore_persistable eligible in
  (* a tag that found no live store (codec not installed in this
     process) is reported as skipped too *)
  let unmatched =
    List.filter_map
      (fun (d : Cache.Store.dumped_store) ->
        if List.mem_assoc d.d_tag restored then None else Some d.d_tag)
      eligible
  in
  (restored, List.rev !skipped @ unmatched)

(* ------------------------------------------------------------------ *)
(* File framing                                                        *)
(* ------------------------------------------------------------------ *)

type info = {
  i_path : string;
  i_version : int;
  i_bytes : int;
  i_digest : int;
  i_sections : (string * int) list;
}

type contents = {
  c_symtab : int;
  c_relations : (string * Relational.Relation.t) list;
  c_components : (string * string) list option;
  c_caches : (string * int) list;
  c_caches_skipped : string list;
}

let combined_digest sections =
  Repr.Fingerprint.finish
    (List.fold_left
       (fun acc (tag, d) -> Repr.Fingerprint.int (Repr.Fingerprint.string acc tag) d)
       Repr.Fingerprint.seed sections)

let save ?(relations = []) ?components ?(caches = true) ~path () =
  try
    let sections =
      List.concat
        [
          [ (tag_syms, encode_syms ()) ];
          (if relations = [] then [] else [ (tag_rels, encode_rels relations) ]);
          (match components with
          | None -> []
          | Some c -> [ (tag_comp, encode_comp c) ]);
          (if caches then [ (tag_cach, encode_cach ()) ] else []);
        ]
    in
    (* single buffered writer: the whole file is assembled in one buffer
       and hits the OS in one write *)
    let b = Wire.W.create () in
    Buffer.add_string b magic;
    Wire.W.u32 b format_version;
    Wire.W.u32 b (List.length sections);
    let digests =
      List.map
        (fun (tag, payload) ->
          Wire.W.str b tag;
          Wire.W.str b payload;
          let d = Wire.digest payload in
          Wire.W.i64 b d;
          (tag, d))
        sections
    in
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc b);
    Sys.rename tmp path;
    Ok
      {
        i_path = path;
        i_version = format_version;
        i_bytes = Buffer.length b;
        i_digest = combined_digest digests;
        i_sections = List.map (fun (tag, p) -> (tag, String.length p)) sections;
      }
  with
  | Corrupt msg -> Error ("snapshot save: " ^ msg)
  | Sys_error msg -> Error ("snapshot save: " ^ msg)

let load ~path =
  try
    let raw = In_channel.with_open_bin path In_channel.input_all in
    let r = Wire.R.of_string raw in
    Wire.R.need r (String.length magic);
    let m = String.sub raw 0 (String.length magic) in
    if not (String.equal m magic) then corrupt "bad magic %S" m;
    r.Wire.R.pos <- String.length magic;
    let version = Wire.R.u32 r in
    if version <> format_version then
      corrupt "unsupported format version %d (this build reads %d)" version
        format_version;
    let count = Wire.R.u32 r in
    (* Frame + digest-verify every section before decoding any of them:
       a file that fails integrity anywhere must not half-apply. *)
    let sections = ref [] in
    for _ = 1 to count do
      let tag = Wire.R.str r in
      let payload = Wire.R.str r in
      let stored = Wire.R.i64 r in
      let actual = Wire.digest payload in
      if stored <> actual then corrupt "section %s: digest mismatch" tag;
      sections := (tag, payload) :: !sections
    done;
    Wire.R.expect_end r;
    let sections = List.rev !sections in
    let find tag = List.assoc_opt tag sections in
    (* fixed decode order: the id space must be re-established before
       anything that speaks in ids (RELS rows, CACH fingerprints) *)
    let c_symtab = match find tag_syms with None -> 0 | Some p -> decode_syms p in
    let c_relations =
      match find tag_rels with None -> [] | Some p -> decode_rels p
    in
    let c_components = Option.map decode_comp (find tag_comp) in
    let c_caches, c_caches_skipped =
      match find tag_cach with None -> ([], []) | Some p -> decode_cach p
    in
    let digests =
      List.map (fun (tag, p) -> (tag, Wire.digest p)) sections
    in
    Ok
      ( {
          i_path = path;
          i_version = version;
          i_bytes = String.length raw;
          i_digest = combined_digest digests;
          i_sections =
            List.map (fun (tag, p) -> (tag, String.length p)) sections;
        },
        { c_symtab; c_relations; c_components; c_caches; c_caches_skipped } )
  with
  | Corrupt msg -> Error ("snapshot load: " ^ msg)
  | Sys_error msg -> Error ("snapshot load: " ^ msg)
