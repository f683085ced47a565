(* Packed key codes. See keycode.mli for the semantic contract; the
   short version is that every encoding below must be injective w.r.t.
   Value.Key equality over the cells it covers, or [of_columns] must
   refuse so that [group_ids]/[join_pairs] take their boxed path. *)

module Bitset = Column.Bitset

(* --- component classification ------------------------------------- *)

(* One component of the composite key, classified across all sides.
   Packed components carry the field width in bits; a code of 0 always
   means Null, so a packed key of all-zero fields is the all-null key
   and null detection is "any field extracts to 0". *)
type comp =
  | Craw  (* sole component, int storage, no nulls on any side: the raw
             value is already an injective one-word key (zero-copy) *)
  | Cint of { base : int; width : int }  (* code = v - base + 1 *)
  | Cbool  (* width 2: null 0, false 1, true 2 *)
  | Cstr of { remaps : int array array; width : int }
      (* remaps.(side).(column_code) = shared dictionary code;
         packed code = shared + 1 *)
  | Cnum  (* bytes mode: canonical float image (ints validated exact) *)
  | Cwide  (* bytes mode: exact int payload, range too wide to pack *)

type mode = Mraw | Mpacked | Mbytes

type t = { sides : Column.t array array; comps : comp array; mode : mode }

let comp_width = function
  | Cint { width; _ } -> width
  | Cbool -> 2
  | Cstr { width; _ } -> width
  | Craw | Cnum | Cwide -> 0

(* Smallest w >= 1 with 2^w >= count. Callers guarantee count < 2^62. *)
let bits_for count =
  let w = ref 1 in
  while 1 lsl !w < count do incr w done;
  !w

(* Range of an int data array, scanned over every slot: null slots hold
   the fill default 0, which can only widen the range — codes stay
   injective because base <= every non-null value. *)
let int_range datas =
  let mn, mx =
    List.fold_left
      (fun (mn, mx) (data : int array) ->
        let mn = ref mn and mx = ref mx in
        for i = 0 to Array.length data - 1 do
          let v = data.(i) in
          if v < !mn then mn := v;
          if v > !mx then mx := v
        done;
        (!mn, !mx))
      (max_int, min_int) datas
  in
  if mn > mx then (0, 0) else (mn, mx)

let exact_float_limit = 1 lsl 53

(* Every int whose magnitude is at most 2^53 has an exact float image,
   so Int i = Float f decisions survive the encoding. Beyond that,
   float_of_int is not injective and we refuse the component. *)
let ints_exact datas =
  List.for_all
    (fun (data : int array) ->
      Array.for_all (fun v -> v >= -exact_float_limit && v <= exact_float_limit) data)
    datas

(* [sole] is true when this is the key's only component: only then may
   an all-int no-null component stay raw (zero-copy Mraw mode) — in a
   composite key every component needs a bounded packed width. *)
let classify_comp ~sole n_sides views =
  let all p = Array.for_all p views in
  let int_datas () =
    Array.to_list views
    |> List.filter_map (function Column.Vint { data; _ } -> Some data | _ -> None)
  in
  if all (function Column.Vint _ -> true | _ -> false) then begin
    let no_nulls = all (function Column.Vint { nulls = None; _ } -> true | _ -> false) in
    if sole && no_nulls && n_sides = 1 then Some Craw
    else begin
      let mn, mx = int_range (int_datas ()) in
      let span = mx - mn in
      (* span < 0 is overflow of the subtraction itself: definitely wide *)
      if span >= 0 && span <= (1 lsl 61) - 2 then
        Some (Cint { base = mn; width = bits_for (span + 2) })
      else Some Cwide
    end
  end
  else if all (function Column.Vbool _ -> true | _ -> false) then Some Cbool
  else if all (function Column.Vstring _ -> true | _ -> false) then begin
    let shared : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let next = ref 0 in
    let remaps =
      Array.map
        (function
          | Column.Vstring { dict; _ } ->
            Array.map
              (fun s ->
                match Hashtbl.find_opt shared s with
                | Some c -> c
                | None ->
                  let c = !next in
                  incr next;
                  Hashtbl.add shared s c;
                  c)
              dict
          | _ -> assert false)
        views
    in
    Some (Cstr { remaps; width = bits_for (!next + 1) })
  end
  else if
    all (function Column.Vint _ | Column.Vfloat _ -> true | _ -> false)
    && ints_exact (int_datas ())
  then Some Cnum
  else None

let of_columns sides =
  match sides with
  | [] -> None
  | first :: rest ->
    let k = Array.length first in
    if k = 0 || List.exists (fun s -> Array.length s <> k) rest then None
    else begin
      let sides = Array.of_list sides in
      if Array.exists (fun cols -> Array.exists (fun c -> not (Column.det c)) cols) sides
      then None
      else begin
        let comps =
          Array.init k (fun c ->
              classify_comp ~sole:(k = 1) (Array.length sides)
                (Array.map (fun cols -> Column.view cols.(c)) sides))
        in
        if Array.exists Option.is_none comps then None
        else begin
          let comps = Array.map Option.get comps in
          let has_bytes =
            Array.exists (function Cnum | Cwide -> true | _ -> false) comps
          in
          let total = Array.fold_left (fun a c -> a + comp_width c) 0 comps in
          let mode =
            if k = 1 && comps.(0) = Craw then Mraw
            else if (not has_bytes) && total <= 63 then Mpacked
            else Mbytes
          in
          Some { sides; comps; mode }
        end
      end
    end

(* --- encoding ------------------------------------------------------ *)

type keys = Kint of int array | Kbytes of bytes array

type coded = { keys : keys; null_rows : bool array option }

let null_reader nulls =
  match nulls with
  | None -> fun _ -> false
  | Some m -> fun i -> Bitset.get m i 0

(* Packed field code for component [c] of [side]: 0 iff the cell is
   Null, otherwise >= 1 and injective over the component's values. *)
let packed_code comp side_idx view =
  match (comp, view) with
  | Cint { base; _ }, Column.Vint { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun i -> if is_null i then 0 else data.(i) - base + 1
  | Cbool, Column.Vbool { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun i -> if is_null i then 0 else data.(i) + 1
  | Cstr { remaps; _ }, Column.Vstring { codes; _ } ->
    let remap = remaps.(side_idx) in
    fun i ->
      let c = codes.(i) in
      if c < 0 then 0 else remap.(c) + 1
  | _ -> invalid_arg "Keycode: component/storage mismatch"

(* Can this component be Null on this side? Used only to decide whether
   the null_rows array is worth allocating; false negatives would be a
   bug, false positives just cost one bool array. *)
let comp_nullable view =
  match view with
  | Column.Vint { nulls; _ } | Column.Vbool { nulls; _ } | Column.Vfloat { nulls; _ } ->
    nulls <> None
  | Column.Vstring { codes; _ } -> Array.exists (fun c -> c < 0) codes
  | Column.Vvalues _ -> true

let canonical_nan_bits = 0x7FF8_0000_0000_0000L

(* Canonical image: injective over Float Value.Key classes — all NaNs
   collapse, -0.0 collapses onto +0.0, everything else is bits. *)
let num_image f =
  if f <> f then canonical_nan_bits
  else if f = 0. then 0L
  else Int64.bits_of_float f

(* Bytes component writer: 9 bytes at [off] (1 tag + 8 payload), returns
   true iff the cell was Null. Tags: 0 null, 1 numeric image, 2 bool,
   3 shared string code, 4 exact int. *)
let bytes_writer comp side_idx view =
  let write_null b off =
    Bytes.set b off '\000';
    Bytes.set_int64_le b (off + 1) 0L;
    true
  in
  let write b off tag payload =
    Bytes.set b off tag;
    Bytes.set_int64_le b (off + 1) payload;
    false
  in
  match (comp, view) with
  | Cnum, Column.Vfloat { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun b off i ->
      if is_null i then write_null b off
      else write b off '\001' (num_image (Bigarray.Array1.get data i))
  | Cnum, Column.Vint { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun b off i ->
      if is_null i then write_null b off
      else write b off '\001' (num_image (float_of_int data.(i)))
  | (Cwide | Cint _ | Craw), Column.Vint { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun b off i ->
      if is_null i then write_null b off
      else write b off '\004' (Int64.of_int data.(i))
  | Cbool, Column.Vbool { data; nulls; _ } ->
    let is_null = null_reader nulls in
    fun b off i ->
      if is_null i then write_null b off else write b off '\002' (Int64.of_int data.(i))
  | Cstr { remaps; _ }, Column.Vstring { codes; _ } ->
    let remap = remaps.(side_idx) in
    fun b off i ->
      let c = codes.(i) in
      if c < 0 then write_null b off else write b off '\003' (Int64.of_int remap.(c))
  | _ -> invalid_arg "Keycode: component/storage mismatch"

let encode ?pool t ~side =
  let cols = t.sides.(side) in
  let k = Array.length cols in
  let n = Column.rows cols.(0) in
  let views = Array.map Column.view cols in
  match t.mode with
  | Mraw -> (
    match views.(0) with
    | Column.Vint { data; _ } -> { keys = Kint data; null_rows = None }
    | _ -> invalid_arg "Keycode: component/storage mismatch")
  | Mpacked ->
    let codes = Array.init k (fun c -> packed_code t.comps.(c) side views.(c)) in
    let widths = Array.map comp_width t.comps in
    let nullable = Array.exists comp_nullable views in
    let out = Array.make n 0 in
    let nulls = if nullable then Some (Array.make n false) else None in
    let fill =
      match nulls with
      | None ->
        fun i ->
          let key = ref 0 in
          for c = 0 to k - 1 do
            key := (!key lsl widths.(c)) lor codes.(c) i
          done;
          out.(i) <- !key
      | Some flags ->
        fun i ->
          let key = ref 0 in
          let anynull = ref false in
          for c = 0 to k - 1 do
            let code = codes.(c) i in
            if code = 0 then anynull := true;
            key := (!key lsl widths.(c)) lor code
          done;
          out.(i) <- !key;
          if !anynull then flags.(i) <- true
    in
    Mde_par.Pool.iter ?pool ~site:"relational.keycode" n fill;
    { keys = Kint out; null_rows = nulls }
  | Mbytes ->
    let writers = Array.init k (fun c -> bytes_writer t.comps.(c) side views.(c)) in
    let len = 9 * k in
    let out = Array.make n Bytes.empty in
    let nullable = Array.exists comp_nullable views in
    let nulls = if nullable then Some (Array.make n false) else None in
    let fill i =
      let b = Bytes.create len in
      let anynull = ref false in
      for c = 0 to k - 1 do
        if writers.(c) b (9 * c) i then anynull := true
      done;
      out.(i) <- b;
      match nulls with
      | Some flags -> if !anynull then flags.(i) <- true
      | None -> ()
    in
    Mde_par.Pool.iter ?pool ~site:"relational.keycode" n fill;
    { keys = Kbytes out; null_rows = nulls }

(* --- key tables ---------------------------------------------------- *)

(* Open addressing over immediate int keys: linear probing with a
   multiplicative (Fibonacci) hash. The 62-bit odd constant keeps the
   literal inside OCaml's boxed-free int range; the xor-fold pulls the
   high-entropy bits down into the slot index. *)
let int_hash k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int

type int_tbl = {
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable slot_keys : int array;
  mutable slot_ids : int array;  (* -1 = empty *)
  mutable count : int;
  build_keys : int array;
}

type bytes_tbl = {
  bt : (bytes, int) Hashtbl.t;
  bbuild : bytes array;
  mutable bcount : int;
}

type tbl = Tint of int_tbl | Tbytes of bytes_tbl

let pow2_at_least n =
  let c = ref 16 in
  while !c < n do c := !c * 2 done;
  !c

let tbl_create ~hint keys =
  match keys with
  | Kint build_keys ->
    let cap = pow2_at_least (max 16 (hint * 2)) in
    Tint
      {
        mask = cap - 1;
        slot_keys = Array.make cap 0;
        slot_ids = Array.make cap (-1);
        count = 0;
        build_keys;
      }
  | Kbytes bbuild -> Tbytes { bt = Hashtbl.create (max 16 hint); bbuild; bcount = 0 }

let int_grow t =
  let cap = (t.mask + 1) * 2 in
  let keys = Array.make cap 0 and ids = Array.make cap (-1) in
  let mask = cap - 1 in
  let old_keys = t.slot_keys and old_ids = t.slot_ids in
  Array.iteri
    (fun s id ->
      if id >= 0 then begin
        let k = old_keys.(s) in
        let j = ref (int_hash k land mask) in
        while ids.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        keys.(!j) <- k;
        ids.(!j) <- id
      end)
    old_ids;
  t.mask <- mask;
  t.slot_keys <- keys;
  t.slot_ids <- ids

let int_add t k =
  let mask = t.mask in
  let j = ref (int_hash k land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let id = t.slot_ids.(!j) in
    if id < 0 then begin
      let fresh = t.count in
      t.slot_ids.(!j) <- fresh;
      t.slot_keys.(!j) <- k;
      t.count <- fresh + 1;
      if t.count * 4 > (mask + 1) * 3 then int_grow t;
      res := fresh
    end
    else if t.slot_keys.(!j) = k then res := id
    else j := (!j + 1) land mask
  done;
  !res

let int_find t k =
  let mask = t.mask in
  let j = ref (int_hash k land mask) in
  let res = ref min_int in
  while !res = min_int do
    let id = t.slot_ids.(!j) in
    if id < 0 then res := -1
    else if t.slot_keys.(!j) = k then res := id
    else j := (!j + 1) land mask
  done;
  !res

let tbl_add t i =
  match t with
  | Tint it -> int_add it it.build_keys.(i)
  | Tbytes bt -> (
    let key = bt.bbuild.(i) in
    match Hashtbl.find_opt bt.bt key with
    | Some id -> id
    | None ->
      let fresh = bt.bcount in
      Hashtbl.add bt.bt key fresh;
      bt.bcount <- fresh + 1;
      fresh)

let tbl_find t probe i =
  match (t, probe) with
  | Tint it, Kint keys -> int_find it keys.(i)
  | Tbytes bt, Kbytes keys -> (
    match Hashtbl.find_opt bt.bt keys.(i) with Some id -> id | None -> -1)
  | _ -> invalid_arg "Keycode.tbl_find: probe keys from a different encoder"

(* --- the keyed core: group ids and join pairs ------------------------ *)

(* Every keyed operator asks one question: is this row's composite key
   new, and which earlier rows share it? Below, that question is
   answered once, through the packed table when the encoder accepts the
   columns and through the boxed [Value.Tbl] otherwise (the encoder
   refused, or the caller asked for the oracle with [~packed:false]). *)

type groups = { ids : int array; firsts : int array }

(* A growable unboxed int buffer: first rows and per-chunk match lists. *)
type ibuf = { mutable ib : int array; mutable ilen : int }

let ibuf_create () = { ib = Array.make 64 0; ilen = 0 }

let ibuf_push b v =
  if b.ilen = Array.length b.ib then begin
    let bigger = Array.make (2 * b.ilen) 0 in
    Array.blit b.ib 0 bigger 0 b.ilen;
    b.ib <- bigger
  end;
  b.ib.(b.ilen) <- v;
  b.ilen <- b.ilen + 1

let ibuf_contents b = Array.sub b.ib 0 b.ilen

let boxed_key cols i = Array.to_list (Array.map (fun c -> Column.value c i 0) cols)

let group_ids ?pool ~packed ~n_rows cols =
  if Array.length cols = 0 then
    (* No key columns: every row shares the one empty key. *)
    { ids = Array.make n_rows 0; firsts = (if n_rows > 0 then [| 0 |] else [||]) }
  else begin
    let ids = Array.make n_rows 0 in
    let firsts = ibuf_create () in
    let assign i id =
      if id = firsts.ilen then ibuf_push firsts i;
      ids.(i) <- id
    in
    (match if packed then of_columns [ cols ] else None with
    | Some enc ->
      let coded = encode ?pool enc ~side:0 in
      let tbl = tbl_create ~hint:(max 16 (n_rows / 8)) coded.keys in
      for i = 0 to n_rows - 1 do
        assign i (tbl_add tbl i)
      done
    | None ->
      let seen : int Value.Tbl.t = Value.Tbl.create 64 in
      for i = 0 to n_rows - 1 do
        let key = boxed_key cols i in
        match Value.Tbl.find_opt seen key with
        | Some id -> assign i id
        | None ->
          let id = firsts.ilen in
          Value.Tbl.add seen key id;
          assign i id
      done);
    { ids; firsts = ibuf_contents firsts }
  end

let no_nulls = function
  | None -> fun _ -> false
  | Some (flags : bool array) -> fun i -> flags.(i)

(* Packed join: build-order match chains (head/next/tail per key id)
   over the open-addressing table, probed row-chunked when pooled. *)
let packed_pairs ?pool enc ~build_rows ~probe_rows =
  let bcoded = encode ?pool enc ~side:0 in
  let pcoded = encode ?pool enc ~side:1 in
  let bnull = no_nulls bcoded.null_rows and pnull = no_nulls pcoded.null_rows in
  let tbl = tbl_create ~hint:build_rows bcoded.keys in
  let head = ref (Array.make (max 16 (build_rows / 4)) (-1)) in
  let tail = ref (Array.make (Array.length !head) (-1)) in
  let next = Array.make build_rows (-1) in
  for j = 0 to build_rows - 1 do
    if not (bnull j) then begin
      let id = tbl_add tbl j in
      if id >= Array.length !head then begin
        let grow a =
          let bigger = Array.make (2 * Array.length a) (-1) in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        head := grow !head;
        tail := grow !tail
      end;
      if !head.(id) < 0 then !head.(id) <- j else next.(!tail.(id)) <- j;
      !tail.(id) <- j
    end
  done;
  let head = !head in
  let probe_into buf lo hi =
    for i = lo to hi - 1 do
      if not (pnull i) then begin
        let id = tbl_find tbl pcoded.keys i in
        if id >= 0 then begin
          let j = ref head.(id) in
          while !j >= 0 do
            ibuf_push buf i;
            ibuf_push buf !j;
            j := next.(!j)
          done
        end
      end
    done
  in
  let bufs =
    match pool with
    | None ->
      let buf = ibuf_create () in
      probe_into buf 0 probe_rows;
      [| buf |]
    | Some p ->
      (* Deterministic chunk descriptors, one private buffer each:
         every row's matches land in its own chunk's buffer, and the
         in-order concatenation below restores exactly the sequential
         emission order whatever the chunk count. *)
      let n_chunks = min (max 1 probe_rows) (Mde_par.Pool.domains p * 8) in
      let per = (probe_rows + n_chunks - 1) / n_chunks in
      let bufs = Array.init n_chunks (fun _ -> ibuf_create ()) in
      Mde_par.Pool.parallel_iter p ~site:"columnar.join.probe" ~chunk:1 n_chunks
        (fun c -> probe_into bufs.(c) (c * per) (min probe_rows ((c + 1) * per)));
      bufs
  in
  let n_pairs = Array.fold_left (fun n b -> n + (b.ilen / 2)) 0 bufs in
  let pi = Array.make n_pairs 0 and bi = Array.make n_pairs 0 in
  let k = ref 0 in
  Array.iter
    (fun b ->
      let p = ref 0 in
      while !p < b.ilen do
        pi.(!k) <- b.ib.(!p);
        bi.(!k) <- b.ib.(!p + 1);
        incr k;
        p := !p + 2
      done)
    bufs;
  (pi, bi)

let boxed_pairs ~build ~build_rows ~probe ~probe_rows =
  let tbl = Value.Tbl.create (max 16 build_rows) in
  for j = 0 to build_rows - 1 do
    let key = boxed_key build j in
    if not (List.exists Value.is_null key) then Value.Tbl.add tbl key j
  done;
  let pairs = ref [] in
  for i = 0 to probe_rows - 1 do
    let key = boxed_key probe i in
    if not (List.exists Value.is_null key) then
      (* find_all returns most-recent first; restore build order. *)
      List.iter
        (fun j -> pairs := (i, j) :: !pairs)
        (List.rev (Value.Tbl.find_all tbl key))
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  (Array.map fst pairs, Array.map snd pairs)

let join_pairs ?pool ~packed ~build_rows ~probe_rows build probe =
  if Array.length build <> Array.length probe then
    invalid_arg "Keycode.join_pairs: build and probe key arities differ";
  match if packed then of_columns [ build; probe ] else None with
  | Some enc -> packed_pairs ?pool enc ~build_rows ~probe_rows
  | None -> boxed_pairs ~build ~build_rows ~probe ~probe_rows

(* --- normalized sort keys ------------------------------------------ *)

(* A component's sort image is a list of words, most significant first.
   Each word is an unsigned [width]-bit number ([lsr] reads a 63-bit int
   as unsigned, so a width of 63 is fine), and comparing the words
   lexicographically is the component's order under
   [Columnar.slot_compare]. [fill img ~shift ~flip] ORs the word, XORed
   with [flip], shifted left by [shift], into every row's slot of [img]:
   one loop per word, no per-row closure on the int and string paths. *)
type word = { width : int; fill : int array -> shift:int -> flip:int -> unit }

(* Bits in the unsigned 63-bit number [m]: the width of the range [0, m]. *)
let bit_length m =
  let w = ref 0 in
  while !w < 63 && m lsr !w <> 0 do
    incr w
  done;
  !w

let width_mask w = if w >= 63 then -1 else (1 lsl w) - 1

let code_word n width code =
  {
    width;
    fill =
      (fun img ~shift ~flip ->
        for i = 0 to n - 1 do
          img.(i) <- img.(i) lor ((code i lxor flip) lsl shift)
        done);
  }

(* Ints and bools (0/1): the offset from the scanned minimum. The span
   may wrap past [max_int]; [v - mn] then still reads right as an
   unsigned 63-bit number. Null sits below every value as a class bit
   above the offset. *)
let int_image n data nulls =
  let mn, mx = int_range [ data ] in
  let width = bit_length (mx - mn) in
  match nulls with
  | None ->
    [
      {
        width;
        fill =
          (fun img ~shift ~flip ->
            for i = 0 to n - 1 do
              img.(i) <- img.(i) lor (((data.(i) - mn) lxor flip) lsl shift)
            done);
      };
    ]
  | Some m ->
    let is_null i = Bitset.get m i 0 in
    [
      code_word n 1 (fun i -> if is_null i then 0 else 1);
      code_word n width (fun i -> if is_null i then 0 else data.(i) - mn);
    ]

(* Strings by dictionary {e rank} under [String.compare]: duplicate
   dictionary entries get equal ranks, so equal strings tie. Null is
   code 0, below every rank. *)
let string_image n codes dict =
  let n_dict = Array.length dict in
  let order = Array.init n_dict Fun.id in
  Array.sort (fun a b -> String.compare dict.(a) dict.(b)) order;
  let ranks = Array.make n_dict 0 in
  let rank = ref 0 in
  Array.iteri
    (fun pos code ->
      if pos = 0 || not (String.equal dict.(code) dict.(order.(pos - 1))) then incr rank;
      ranks.(code) <- !rank)
    order;
  [
    {
      width = bit_length !rank;
      fill =
        (fun img ~shift ~flip ->
          for i = 0 to n - 1 do
            let c = codes.(i) in
            let code = if c < 0 then 0 else ranks.(c) in
            img.(i) <- img.(i) lor ((code lxor flip) lsl shift)
          done);
    };
  ]

(* Floats in [Float.compare] order: a class digit (Null 0 < NaN 1 <
   number 2) above the sign-flipped IEEE bits, split into two 32-bit
   words since ints hold 63 bits. [-0.] is canonicalised to [+0.]
   because [Float.compare (-0.) 0. = 0]; Null and NaN rows carry a zero
   image, so they tie within their class. A column of numbers only
   needs no class digit. *)
let float_image n (data : Column.floats) nulls =
  let is_null = null_reader nulls in
  let cls i =
    if is_null i then 0 else if Float.is_nan (Bigarray.Array1.get data i) then 1 else 2
  in
  let all_numbers =
    let rec go i = i >= n || (cls i = 2 && go (i + 1)) in
    go 0
  in
  let half ~hi img ~shift ~flip =
    for i = 0 to n - 1 do
      let h =
        if cls i < 2 then 0
        else begin
          let f = Bigarray.Array1.get data i in
          let b = Int64.bits_of_float (if f = 0. then 0. else f) in
          (* Negative: flip every bit; otherwise set the sign bit. *)
          let b = Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int) in
          if hi then Int64.to_int (Int64.shift_right_logical b 32)
          else Int64.to_int b land 0xFFFF_FFFF
        end
      in
      img.(i) <- img.(i) lor ((h lxor flip) lsl shift)
    done
  in
  [
    code_word n (if all_numbers then 0 else 2) cls;
    { width = 32; fill = half ~hi:true };
    { width = 32; fill = half ~hi:false };
  ]

let sort_image n view =
  match view with
  | Column.Vint { data; nulls; vdet = true } | Column.Vbool { data; nulls; vdet = true } ->
    Some (int_image n data nulls)
  | Column.Vstring { codes; dict; vdet = true } -> Some (string_image n codes dict)
  | Column.Vfloat { data; nulls; vdet = true } -> Some (float_image n data nulls)
  | _ -> None

let radix_bits = 11

(* One stable counting-sort pass per digit of [keys] (an image word of
   [width] bits, in row order), least significant digit first, moving
   the permutation between [perm] and [scratch]. Digits are balanced to
   at most [radix_bits] bits; a digit every row shares is skipped.
   Returns the sorted permutation and the spare array. *)
let radix_word keys ~width perm scratch =
  let n = Array.length keys in
  let passes = (width + radix_bits - 1) / radix_bits in
  let d = (width + passes - 1) / passes in
  let buckets = 1 lsl d and m = (1 lsl d) - 1 in
  (* Histograms do not depend on row order: count every digit with
     sequential reads before the first scatter. *)
  let counts = Array.make (passes * buckets) 0 in
  for p = 0 to passes - 1 do
    let base = p * buckets and shift = p * d in
    for i = 0 to n - 1 do
      let b = base + ((keys.(i) lsr shift) land m) in
      counts.(b) <- counts.(b) + 1
    done
  done;
  let src = ref perm and dst = ref scratch in
  for p = 0 to passes - 1 do
    let shift = p * d and base = p * buckets in
    if counts.(base + ((keys.(0) lsr shift) land m)) < n then begin
      let sum = ref 0 in
      for b = base to base + buckets - 1 do
        let c = counts.(b) in
        counts.(b) <- !sum;
        sum := !sum + c
      done;
      let s = !src and t = !dst in
      for i = 0 to n - 1 do
        let r = s.(i) in
        let b = base + ((keys.(r) lsr shift) land m) in
        let o = counts.(b) in
        t.(o) <- r;
        counts.(b) <- o + 1
      done;
      src := t;
      dst := s
    end
  done;
  (!src, !dst)

let sort_perm ?(descending = false) cols ~n_rows =
  let images = Array.map (fun c -> sort_image n_rows (Column.view c)) cols in
  if Array.exists Option.is_none images then None
  else if n_rows <= 1 then Some (Array.init n_rows Fun.id)
  else begin
    let words =
      Array.to_list images
      |> List.concat_map Option.get
      |> List.filter (fun w -> w.width > 0)
    in
    (* Fuse adjacent words, from the least significant end, into keys of
       at most 63 bits: [(width, [(word, shift)])], least significant
       key first. *)
    let keys =
      List.fold_left
        (fun keys w ->
          match keys with
          | (used, key) :: rest when used + w.width <= 63 ->
            (used + w.width, (w, used) :: key) :: rest
          | _ -> (w.width, [ (w, 0) ]) :: keys)
        [] (List.rev words)
      |> List.rev
    in
    let img = Array.make n_rows 0 in
    let perm = Array.make n_rows 0 in
    for i = 0 to n_rows - 1 do
      perm.(i) <- i
    done;
    (* LSD: keys from least to most significant, each stable, so earlier
       keys break later keys' ties and equal rows keep input order.
       Descending flips every word within its width: key order reverses,
       tie order does not, exactly like [Algebra.order_by]. *)
    let perm, _ =
      List.fold_left
        (fun (perm, scratch) (width, key) ->
          Array.fill img 0 n_rows 0;
          List.iter
            (fun (w, shift) ->
              w.fill img ~shift ~flip:(if descending then width_mask w.width else 0))
            key;
          radix_word img ~width perm scratch)
        (perm, Array.make n_rows 0)
        keys
    in
    Some perm
  end
