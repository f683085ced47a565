module Array1 = Bigarray.Array1
module Bitset = Column.Bitset

type floats = Column.floats

let block_size = 1024

(* --- block vectors --------------------------------------------------- *)

type 'a blk = { data : 'a; mutable off : int }

type vec =
  | Floats of floats blk
  | Ints of int array blk
  | Bools of Bytes.t blk
  | Strings of string array blk

type inst = {
  run : int -> int -> unit;
  vec : vec;
  nulls : Bytes.t blk option;
  stride : int;
}

type kind = Kint | Kfloat | Kbool | Kstr

(* [make rows stride] builds a fresh instance whose scratch holds [rows]
   rows at [stride] slots per row: the node's own stride ([reps] when
   uncertain, 1 otherwise), or [reps] for a deterministic node feeding
   an uncertain parent. *)
type node = {
  kind : kind;
  unc : bool;
  nullable : bool;
  reps : int;
  make : int -> int -> inst;
}

let node_unc n = n.unc
let kind n = n.kind
let fresh data = { data; off = 0 }
let new_floats n : floats = Array1.create Bigarray.float64 Bigarray.c_layout n

let float_block i =
  match i.vec with Floats b -> b | _ -> invalid_arg "Kernel.float_block: not a float node"

let int_block i =
  match i.vec with Ints b -> b | _ -> invalid_arg "Kernel.int_block: not an int node"

let bool_block i =
  match i.vec with Bools b -> b | _ -> invalid_arg "Kernel.bool_block: not a bool node"

let string_block i =
  match i.vec with
  | Strings b -> b
  | _ -> invalid_arg "Kernel.string_block: not a string node"

(* Flags are 0/1 bytes throughout, so they combine with [land]/[lor]. *)
let byte b k = Char.code (Bytes.unsafe_get b k)
let set_byte b k x = Bytes.unsafe_set b k (Char.unsafe_chr x)

(* A deterministic instance repeated across [reps] slots per row. *)
let broadcast reps rows (c : inst) =
  let n = rows * reps in
  let spread_bytes (src : Bytes.t blk) =
    let dst = Bytes.create n in
    ( fresh dst,
      fun nrows ->
        for j = 0 to nrows - 1 do
          Bytes.unsafe_fill dst (j * reps) reps (Bytes.unsafe_get src.data (src.off + j))
        done )
  in
  let vec, spread =
    match c.vec with
    | Floats src ->
      let dst = new_floats n in
      ( Floats (fresh dst),
        fun nrows ->
          for j = 0 to nrows - 1 do
            let x = Array1.unsafe_get src.data (src.off + j) in
            for r = 0 to reps - 1 do
              Array1.unsafe_set dst ((j * reps) + r) x
            done
          done )
    | Ints src ->
      let dst = Array.make n 0 in
      ( Ints (fresh dst),
        fun nrows ->
          for j = 0 to nrows - 1 do
            Array.fill dst (j * reps) reps (Array.unsafe_get src.data (src.off + j))
          done )
    | Bools src ->
      let b, f = spread_bytes src in
      (Bools b, f)
    | Strings src ->
      let dst = Array.make n "" in
      ( Strings (fresh dst),
        fun nrows ->
          for j = 0 to nrows - 1 do
            Array.fill dst (j * reps) reps (Array.unsafe_get src.data (src.off + j))
          done )
  in
  let nulls, spread_nulls =
    match c.nulls with
    | None -> (None, ignore)
    | Some nb ->
      let b, f = spread_bytes nb in
      (Some b, f)
  in
  {
    run =
      (fun i0 i1 ->
        c.run i0 i1;
        spread (i1 - i0);
        spread_nulls (i1 - i0));
    vec;
    nulls;
    stride = reps;
  }

(* A computed node: [core rows stride] instantiates it at its own stride;
   asked for [reps] while deterministic, it runs per row and broadcasts. *)
let mk ~reps kind unc nullable core =
  let own = if unc then reps else 1 in
  {
    kind;
    unc;
    nullable;
    reps;
    make =
      (fun rows stride ->
        if stride = own then core rows own else broadcast stride rows (core rows 1));
  }

(* A constant fills its scratch once, at any stride, and never runs. *)
let const ~reps ?(unc = false) kind fill =
  {
    kind;
    unc;
    nullable = false;
    reps;
    make =
      (fun rows stride ->
        { run = (fun _ _ -> ()); vec = fill (rows * stride); nulls = None; stride });
  }

let const_bool ~reps ?unc b =
  const ~reps ?unc Kbool (fun n -> Bools (fresh (Bytes.make n (if b then '\001' else '\000'))))

(* Null flags of the union of two operands: shared when only one side
   can be null, nothing at all when neither can. *)
let or_nulls rows s na nb =
  match (na, nb) with
  | None, None -> (None, ignore)
  | (Some _ as n), None | None, (Some _ as n) -> (n, ignore)
  | Some x, Some y ->
    let out = Bytes.create (rows * s) in
    ( Some (fresh out),
      fun len ->
        let dx = x.data and ox = x.off and dy = y.data and oy = y.off in
        for k = 0 to len - 1 do
          set_byte out k (byte dx (ox + k) lor byte dy (oy + k))
        done )

(* --- environments ---------------------------------------------------- *)

type env = { ereps : int; nodes : (string, node option) Hashtbl.t }

let leaf ~reps col =
  let stride vdet = if vdet then 1 else reps in
  let node kind vdet nulls load =
    let s = stride vdet in
    Some
      (mk ~reps kind (not vdet) (Option.is_some nulls) (fun rows _ ->
           let vec, fill = load rows in
           let nb, unpack =
             match nulls with
             | None -> (None, fun _ _ -> ())
             | Some m ->
               let b = fresh (Bytes.create (rows * s)) in
               (Some b, fun i0 i1 -> Bitset.unpack m i0 i1 b.data 0)
           in
           {
             run =
               (fun i0 i1 ->
                 fill i0 i1;
                 unpack i0 i1);
             vec;
             nulls = nb;
             stride = s;
           }))
  in
  match Column.view col with
  | Column.Vfloat { vdet; data; nulls } ->
    (* Typed storage is read in place: the block is a window on it. *)
    node Kfloat vdet nulls (fun _ ->
        let b = fresh data in
        (Floats b, fun i0 _ -> b.off <- i0 * stride vdet))
  | Column.Vint { vdet; data; nulls } ->
    node Kint vdet nulls (fun _ ->
        let b = fresh data in
        (Ints b, fun i0 _ -> b.off <- i0 * stride vdet))
  | Column.Vbool { vdet; data; nulls } ->
    let s = stride vdet in
    node Kbool vdet nulls (fun rows ->
        let out = Bytes.create (rows * s) in
        ( Bools (fresh out),
          fun i0 i1 ->
            let base = i0 * s in
            for k = 0 to ((i1 - i0) * s) - 1 do
              set_byte out k (Array.unsafe_get data (base + k))
            done ))
  | Column.Vstring { vdet; codes; dict } ->
    (* Code -1 is Null; decoding yields its flags for free, so a string
       column always carries them. *)
    let s = stride vdet in
    Some
      (mk ~reps Kstr (not vdet) true (fun rows _ ->
           let out = Array.make (rows * s) "" and nb = Bytes.create (rows * s) in
           {
             run =
               (fun i0 i1 ->
                 let base = i0 * s in
                 for k = 0 to ((i1 - i0) * s) - 1 do
                   let c = Array.unsafe_get codes (base + k) in
                   Array.unsafe_set out k (if c < 0 then "" else Array.unsafe_get dict c);
                   set_byte nb k (Bool.to_int (c < 0))
                 done);
             vec = Strings (fresh out);
             nulls = Some (fresh nb);
             stride = s;
           }))
  | Column.Vvalues _ -> None

let env_of_columns schema ~reps columns =
  let nodes = Hashtbl.create (Array.length columns * 2) in
  List.iteri
    (fun j name -> Hashtbl.replace nodes name (leaf ~reps columns.(j)))
    (Schema.column_names schema);
  { ereps = reps; nodes }

let env_extend env defs =
  let nodes = Hashtbl.copy env.nodes in
  List.iter (fun (name, node) -> Hashtbl.replace nodes name (Some node)) defs;
  { env with nodes }

(* --- coercions ------------------------------------------------------- *)

let unary ~reps kind ~nullable a core =
  mk ~reps kind a.unc nullable (fun rows s ->
      let ia = a.make rows s in
      let vec, nulls, body = core rows s ia in
      {
        run =
          (fun i0 i1 ->
            ia.run i0 i1;
            body ((i1 - i0) * s));
        vec;
        nulls;
        stride = s;
      })

(* [Value.to_float] image: ints and bools convert, floats pass through. *)
let numeric n =
  let convert f =
    Some
      (unary ~reps:n.reps Kfloat ~nullable:n.nullable n (fun rows s c ->
           let out = new_floats (rows * s) in
           (Floats (fresh out), c.nulls, f c out)))
  in
  match n.kind with
  | Kfloat -> Some n
  | Kint ->
    convert (fun c out ->
        let src = int_block c in
        fun len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            Array1.unsafe_set out k (float_of_int (Array.unsafe_get d (o + k)))
          done)
  | Kbool ->
    convert (fun c out ->
        let src = bool_block c in
        fun len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            Array1.unsafe_set out k (float_of_int (byte d (o + k)))
          done)
  | Kstr -> None

(* [eval_bool] semantics: Null counts as false, so the result is never
   null. *)
let truth n =
  match n.kind with
  | Kbool when not n.nullable -> Some n
  | Kbool ->
    Some
      (unary ~reps:n.reps Kbool ~nullable:false n (fun rows s c ->
           let b = bool_block c and nb = Option.get c.nulls in
           let out = Bytes.create (rows * s) in
           ( Bools (fresh out),
             None,
             fun len ->
               let d = b.data and o = b.off and dn = nb.data and on = nb.off in
               for k = 0 to len - 1 do
                 set_byte out k (byte d (o + k) land (1 - byte dn (on + k)))
               done )))
  | Kint | Kfloat | Kstr -> None

(* --- operators ------------------------------------------------------- *)

type arith = Add | Sub | Mul | Div

let binary ~reps kind ~nullable a b core =
  let unc = a.unc || b.unc in
  mk ~reps kind unc nullable (fun rows s ->
      let ia = a.make rows s and ib = b.make rows s in
      let vec, nulls, body = core rows s ia ib in
      {
        run =
          (fun i0 i1 ->
            ia.run i0 i1;
            ib.run i0 i1;
            body ((i1 - i0) * s));
        vec;
        nulls;
        stride = s;
      })

(* Operands are both ints (int arithmetic) or both floats (numerics
   promoted by the compiler; [/] always is). *)
let arith_node ~reps op a b =
  binary ~reps a.kind ~nullable:(a.nullable || b.nullable) a b (fun rows s ia ib ->
      let nulls, or_run = or_nulls rows s ia.nulls ib.nulls in
      let vec, body =
        match (ia.vec, ib.vec) with
        | Floats fa, Floats fb ->
          let out = new_floats (rows * s) in
          ( Floats (fresh out),
            fun len ->
              let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
              match op with
              | Add ->
                for k = 0 to len - 1 do
                  Array1.unsafe_set out k
                    (Array1.unsafe_get xa (oa + k) +. Array1.unsafe_get xb (ob + k))
                done
              | Sub ->
                for k = 0 to len - 1 do
                  Array1.unsafe_set out k
                    (Array1.unsafe_get xa (oa + k) -. Array1.unsafe_get xb (ob + k))
                done
              | Mul ->
                for k = 0 to len - 1 do
                  Array1.unsafe_set out k
                    (Array1.unsafe_get xa (oa + k) *. Array1.unsafe_get xb (ob + k))
                done
              | Div ->
                for k = 0 to len - 1 do
                  Array1.unsafe_set out k
                    (Array1.unsafe_get xa (oa + k) /. Array1.unsafe_get xb (ob + k))
                done )
        | Ints fa, Ints fb ->
          let out = Array.make (rows * s) 0 in
          ( Ints (fresh out),
            fun len ->
              let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
              match op with
              | Add ->
                for k = 0 to len - 1 do
                  Array.unsafe_set out k
                    (Array.unsafe_get xa (oa + k) + Array.unsafe_get xb (ob + k))
                done
              | Sub ->
                for k = 0 to len - 1 do
                  Array.unsafe_set out k
                    (Array.unsafe_get xa (oa + k) - Array.unsafe_get xb (ob + k))
                done
              | Mul ->
                for k = 0 to len - 1 do
                  Array.unsafe_set out k
                    (Array.unsafe_get xa (oa + k) * Array.unsafe_get xb (ob + k))
                done
              | Div -> invalid_arg "Kernel: integer division (the compiler promotes / to float)" )
        | _ -> invalid_arg "Kernel: arithmetic on non-numeric or mixed vectors"
      in
      ( vec,
        nulls,
        fun len ->
          body len;
          or_run len ))

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

(* A comparison holds for three-way result [c] in {-1, 0, 1} exactly
   when bit [c + 1] of its mask is set, so one loop per operand type
   serves all six operators without a branch. *)
let mask = function
  | Ceq -> 0b010
  | Cne -> 0b101
  | Clt -> 0b001
  | Cle -> 0b011
  | Cgt -> 0b100
  | Cge -> 0b110

let holds m c = (m lsr (c + 1)) land 1

(* Comparisons yield false (not Null) when either side is Null, per
   [Expr.compare_values]: the result is never null. Operands are of one
   kind: int against int, float against float (numerics promoted by the
   compiler), string against string, bool against bool. *)
let comparison ~reps cop a b =
  let m = mask cop in
  binary ~reps Kbool ~nullable:false a b (fun rows s ia ib ->
      let out = Bytes.create (rows * s) in
      let body =
        match (ia.vec, ib.vec) with
        | Floats fa, Floats fb ->
          fun len ->
            let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
            (* [Float.compare], as [Value.compare]: NaN below everything,
               NaN equal to NaN, and -0. equal to 0.; never IEEE [<]. *)
            for k = 0 to len - 1 do
              set_byte out k
                (holds m
                   (Float.compare (Array1.unsafe_get xa (oa + k)) (Array1.unsafe_get xb (ob + k))))
            done
        | Ints fa, Ints fb ->
          fun len ->
            let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
            for k = 0 to len - 1 do
              set_byte out k
                (holds m (compare (Array.unsafe_get xa (oa + k) : int) (Array.unsafe_get xb (ob + k))))
            done
        | Bools fa, Bools fb ->
          fun len ->
            let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
            for k = 0 to len - 1 do
              set_byte out k (holds m (compare (byte xa (oa + k) : int) (byte xb (ob + k))))
            done
        | Strings fa, Strings fb ->
          fun len ->
            let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
            for k = 0 to len - 1 do
              set_byte out k
                (holds m
                   (compare
                      (String.compare (Array.unsafe_get xa (oa + k)) (Array.unsafe_get xb (ob + k)))
                      0))
            done
        | _ -> invalid_arg "Kernel: comparison of different kinds"
      in
      let body =
        match or_nulls rows s ia.nulls ib.nulls with
        | None, _ -> body
        | Some u, or_run ->
          fun len ->
            body len;
            or_run len;
            let d = u.data and o = u.off in
            for k = 0 to len - 1 do
              set_byte out k (byte out k land (1 - byte d (o + k)))
            done
      in
      (Bools (fresh out), None, body))

let bool_logic ~reps combine a b =
  binary ~reps Kbool ~nullable:false a b (fun rows s ia ib ->
      let fa = bool_block ia and fb = bool_block ib in
      let out = Bytes.create (rows * s) in
      ( Bools (fresh out),
        None,
        fun len ->
          let xa = fa.data and oa = fa.off and xb = fb.data and ob = fb.off in
          match combine with
          | `And ->
            for k = 0 to len - 1 do
              set_byte out k (byte xa (oa + k) land byte xb (ob + k))
            done
          | `Or ->
            for k = 0 to len - 1 do
              set_byte out k (byte xa (oa + k) lor byte xb (ob + k))
            done ))

let negate ~reps a =
  unary ~reps a.kind ~nullable:a.nullable a (fun rows s ia ->
      match ia.vec with
      | Floats src ->
        let out = new_floats (rows * s) in
        ( Floats (fresh out),
          ia.nulls,
          fun len ->
            let d = src.data and o = src.off in
            for k = 0 to len - 1 do
              Array1.unsafe_set out k (-.Array1.unsafe_get d (o + k))
            done )
      | Ints src ->
        let out = Array.make (rows * s) 0 in
        ( Ints (fresh out),
          ia.nulls,
          fun len ->
            let d = src.data and o = src.off in
            for k = 0 to len - 1 do
              Array.unsafe_set out k (0 - Array.unsafe_get d (o + k))
            done )
      | Bools _ | Strings _ -> invalid_arg "Kernel: negation of a non-numeric node")

let not_node ~reps a =
  unary ~reps Kbool ~nullable:false a (fun rows s ia ->
      let src = bool_block ia in
      let out = Bytes.create (rows * s) in
      ( Bools (fresh out),
        None,
        fun len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            set_byte out k (1 - byte d (o + k))
          done ))

(* [Is_null] reads the operand's flags in place; a never-null operand
   is the constant false (keeping its uncertainty, which decides how an
   extend stores the column). *)
let is_null ~reps a =
  if not a.nullable then const_bool ~reps ~unc:a.unc false
  else
    unary ~reps Kbool ~nullable:false a (fun _ _ ia ->
        (Bools (Option.get ia.nulls), None, ignore))

(* Both branches are evaluated over the whole block (every node is
   total) and the condition picks per slot. *)
let if_node ~reps c t e =
  let unc = c.unc || t.unc || e.unc in
  mk ~reps t.kind unc (t.nullable || e.nullable) (fun rows s ->
      let ic = c.make rows s and it = t.make rows s and ie = e.make rows s in
      let cb = bool_block ic in
      let n = rows * s in
      let vec, body =
        match (it.vec, ie.vec) with
        | Floats x, Floats y ->
          let out = new_floats n in
          ( Floats (fresh out),
            fun len ->
              let dc = cb.data and oc = cb.off in
              let dx = x.data and ox = x.off and dy = y.data and oy = y.off in
              for k = 0 to len - 1 do
                Array1.unsafe_set out k
                  (if byte dc (oc + k) = 1 then Array1.unsafe_get dx (ox + k)
                   else Array1.unsafe_get dy (oy + k))
              done )
        | Ints x, Ints y ->
          let out = Array.make n 0 in
          ( Ints (fresh out),
            fun len ->
              let dc = cb.data and oc = cb.off in
              let dx = x.data and ox = x.off and dy = y.data and oy = y.off in
              for k = 0 to len - 1 do
                Array.unsafe_set out k
                  (if byte dc (oc + k) = 1 then Array.unsafe_get dx (ox + k)
                   else Array.unsafe_get dy (oy + k))
              done )
        | Bools x, Bools y ->
          let out = Bytes.create n in
          ( Bools (fresh out),
            fun len ->
              let dc = cb.data and oc = cb.off in
              let dx = x.data and ox = x.off and dy = y.data and oy = y.off in
              for k = 0 to len - 1 do
                set_byte out k
                  (if byte dc (oc + k) = 1 then byte dx (ox + k) else byte dy (oy + k))
              done )
        | Strings x, Strings y ->
          let out = Array.make n "" in
          ( Strings (fresh out),
            fun len ->
              let dc = cb.data and oc = cb.off in
              let dx = x.data and ox = x.off and dy = y.data and oy = y.off in
              for k = 0 to len - 1 do
                Array.unsafe_set out k
                  (if byte dc (oc + k) = 1 then Array.unsafe_get dx (ox + k)
                   else Array.unsafe_get dy (oy + k))
              done )
        | _ -> invalid_arg "Kernel: If branches of different kinds"
      in
      let nulls, pick_nulls =
        match (it.nulls, ie.nulls) with
        | None, None -> (None, ignore)
        | tn, en ->
          let zeros = fresh (Bytes.make n '\000') in
          let tn = Option.value tn ~default:zeros and en = Option.value en ~default:zeros in
          let out = Bytes.create n in
          ( Some (fresh out),
            fun len ->
              let dc = cb.data and oc = cb.off in
              let dt = tn.data and ot = tn.off and de = en.data and oe = en.off in
              for k = 0 to len - 1 do
                set_byte out k
                  (if byte dc (oc + k) = 1 then byte dt (ot + k) else byte de (oe + k))
              done )
      in
      {
        run =
          (fun i0 i1 ->
            ic.run i0 i1;
            it.run i0 i1;
            ie.run i0 i1;
            let len = (i1 - i0) * s in
            body len;
            pick_nulls len);
        vec;
        nulls;
        stride = s;
      })

(* --- compilation ----------------------------------------------------- *)

let is_numeric n = match n.kind with Kint | Kfloat -> true | Kbool | Kstr -> false

let rec compile env expr =
  let reps = env.ereps in
  match (expr : Expr.t) with
  | Expr.Col name -> Option.join (Hashtbl.find_opt env.nodes name)
  | Expr.Lit (Value.Int i) -> Some (const ~reps Kint (fun n -> Ints (fresh (Array.make n i))))
  | Expr.Lit (Value.Float f) ->
    Some
      (const ~reps Kfloat (fun n ->
           let a = new_floats n in
           Array1.fill a f;
           Floats (fresh a)))
  | Expr.Lit (Value.Bool b) -> Some (const_bool ~reps b)
  | Expr.Lit (Value.String s) ->
    Some (const ~reps Kstr (fun n -> Strings (fresh (Array.make n s))))
  | Expr.Lit Value.Null -> None
  | Expr.Add (a, b) -> arith env Add a b
  | Expr.Sub (a, b) -> arith env Sub a b
  | Expr.Mul (a, b) -> arith env Mul a b
  | Expr.Div (a, b) -> begin
    match (compile env a, compile env b) with
    | Some x, Some y when is_numeric x && is_numeric y ->
      Some (arith_node ~reps Div (Option.get (numeric x)) (Option.get (numeric y)))
    | _ -> None
  end
  | Expr.Neg a -> begin
    match compile env a with
    | Some x when is_numeric x -> Some (negate ~reps x)
    | _ -> None
  end
  | Expr.Eq (a, b) -> cmp env Ceq a b
  | Expr.Ne (a, b) -> cmp env Cne a b
  | Expr.Lt (a, b) -> cmp env Clt a b
  | Expr.Le (a, b) -> cmp env Cle a b
  | Expr.Gt (a, b) -> cmp env Cgt a b
  | Expr.Ge (a, b) -> cmp env Cge a b
  | Expr.And (a, b) -> logic env `And a b
  | Expr.Or (a, b) -> logic env `Or a b
  | Expr.Not a -> Option.map (not_node ~reps) (Option.bind (compile env a) truth)
  | Expr.Is_null a -> Option.map (is_null ~reps) (compile env a)
  | Expr.If (c, t, e) -> begin
    match (Option.bind (compile env c) truth, compile env t, compile env e) with
    | Some cn, Some tn, Some en when tn.kind = en.kind -> Some (if_node ~reps cn tn en)
    | _ -> None (* mixed-kind branches: rep-dependent result type *)
  end

and arith env op a b =
  let reps = env.ereps in
  match (compile env a, compile env b) with
  | Some ({ kind = Kint; _ } as x), Some ({ kind = Kint; _ } as y) ->
    Some (arith_node ~reps op x y)
  | Some x, Some y when is_numeric x && is_numeric y ->
    Some (arith_node ~reps op (Option.get (numeric x)) (Option.get (numeric y)))
  | _ -> None

and cmp env cop a b =
  let reps = env.ereps in
  match (compile env a, compile env b) with
  | Some x, Some y when x.kind = y.kind -> Some (comparison ~reps cop x y)
  | Some x, Some y when is_numeric x && is_numeric y ->
    Some (comparison ~reps cop (Option.get (numeric x)) (Option.get (numeric y)))
  | _ -> None (* cross-kind comparison: rank order, left to the interpreter *)

and logic env op a b =
  match (Option.bind (compile env a) truth, Option.bind (compile env b) truth) with
  | Some x, Some y -> Some (bool_logic ~reps:env.ereps op x y)
  | _ -> None

(* --- sweeps ---------------------------------------------------------- *)

let block_rows ~reps = max 1 (block_size / reps)

(* Blocks are whole rows, so a block's slots — and its presence and
   null-mask bytes — belong to no other block. The pool hands out
   contiguous runs of blocks; each run instantiates its own scratch,
   sized to the smaller of the table and one block. *)
let sweep ?pool ~site ~rows ~reps nodes f =
  let br = block_rows ~reps in
  let cap = min rows br in
  Mde_par.Pool.iter_ranges ?pool ~site
    ((rows + br - 1) / br)
    (fun b0 b1 ->
      let insts = Array.map (fun n -> n.make cap (if n.unc then reps else 1)) nodes in
      let block = f insts in
      for b = b0 to b1 - 1 do
        let i0 = b * br in
        let i1 = min rows (i0 + br) in
        Array.iter (fun i -> i.run i0 i1) insts;
        block i0 i1
      done)

(* --- materialization ------------------------------------------------- *)

let materialize ?pool ~rows ~reps node =
  let det = not node.unc in
  let s = if det then 1 else reps in
  let nslots = rows * s in
  let nulls = if node.nullable then Some (Bitset.create ~rows ~reps:s false) else None in
  (* Each block writes its own rows' slots and null bytes, so the pooled
     fill writes exactly the bytes the sequential one would. *)
  let fill ?pool write =
    sweep ?pool ~site:"kernel.materialize" ~rows ~reps [| node |] (fun insts ->
        let inst = insts.(0) in
        let write = write inst in
        fun i0 i1 ->
          let base = i0 * s and len = (i1 - i0) * s in
          write base len;
          match (nulls, inst.nulls) with
          | Some m, Some nb -> Bitset.pack m i0 i1 nb.data nb.off
          | _ -> ())
  in
  (* Null slots hold nan (floats) or 0 (ints, bools), as [Column.of_cells]. *)
  let blank inst base len set =
    match inst.nulls with
    | None -> ()
    | Some nb ->
      let d = nb.data and o = nb.off in
      for k = 0 to len - 1 do
        if byte d (o + k) = 1 then set (base + k)
      done
  in
  let sealed () =
    match nulls with Some m when Bitset.popcount m > 0 -> Some m | _ -> None
  in
  match node.kind with
  | Kfloat ->
    let data = new_floats nslots in
    fill ?pool (fun inst ->
        let src = float_block inst in
        fun base len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            Array1.unsafe_set data (base + k) (Array1.unsafe_get d (o + k))
          done;
          blank inst base len (fun k -> Array1.unsafe_set data k nan));
    Column.of_floats ~det ~reps ?nulls:(sealed ()) data
  | Kint ->
    let data = Array.make nslots 0 in
    fill ?pool (fun inst ->
        let src = int_block inst in
        fun base len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            Array.unsafe_set data (base + k) (Array.unsafe_get d (o + k))
          done;
          blank inst base len (fun k -> Array.unsafe_set data k 0));
    Column.of_ints ~det ~reps ?nulls:(sealed ()) data
  | Kbool ->
    let data = Array.make nslots 0 in
    fill ?pool (fun inst ->
        let src = bool_block inst in
        fun base len ->
          let d = src.data and o = src.off in
          for k = 0 to len - 1 do
            Array.unsafe_set data (base + k) (byte d (o + k))
          done;
          blank inst base len (fun k -> Array.unsafe_set data k 0));
    Column.of_bools ~det ~reps ?nulls:(sealed ()) data
  | Kstr ->
    (* Dictionary codes are assigned in first-seen order: sequential. *)
    let codes = Array.make nslots (-1) in
    let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let rev = ref [] and next = ref 0 in
    fill (fun inst ->
        let src = string_block inst in
        let nb = inst.nulls in
        fun base len ->
          for k = 0 to len - 1 do
            let null =
              match nb with Some b -> byte b.data (b.off + k) = 1 | None -> false
            in
            if not null then begin
              let str = src.data.(src.off + k) in
              codes.(base + k) <-
                (match Hashtbl.find_opt table str with
                | Some c -> c
                | None ->
                  let c = !next in
                  incr next;
                  Hashtbl.add table str c;
                  rev := str :: !rev;
                  c)
            end
          done);
    Column.of_codes ~det ~reps ~dict:(Array.of_list (List.rev !rev)) codes
