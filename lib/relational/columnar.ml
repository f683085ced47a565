(* The columnar relational table: the deterministic reps=1 specialization
   of the tuple-bundle storage ([Column]/[Bitset]) carrying the [Algebra]
   operators. Predicates and computed columns compile to typed closures
   via [Kernel]; anything the compiler does not cover — and everything
   under [`Interpreter] — evaluates with [Expr.eval]/[Expr.eval_bool] on
   a realized row, which doubles as the bit-identity oracle. Every
   operator reproduces its [Algebra] twin bit for bit: same row order,
   same float accumulation order, same error behavior on well-formed
   inputs. *)

module Array1 = Bigarray.Array1

type t = { tschema : Schema.t; n_rows : int; cols : Column.t array }

type impl = Impl.t

let schema t = t.tschema
let row_count t = t.n_rows

(* Invariant: every column is deterministic (one slot per row, reps=1),
   so slot s = row i everywhere below. *)

(* O(1) views: a table keeps its typed columns, built at most once. *)
let of_table table =
  { tschema = Table.schema table; n_rows = Table.cardinality table; cols = Table.columns table }

let row t i = Array.map (fun c -> Column.value c i 0) t.cols
let to_table t = Table.of_columns t.tschema ~n_rows:t.n_rows t.cols
let env t = Kernel.env_of_columns t.tschema ~reps:1 t.cols

(* Under [`Kernel], an expression the compiler does not cover drops to
   the row interpreter; each drop is counted, by operator, on the live
   registry, so a missed fast path shows up in the metrics. *)
let count_fallback op =
  let obs = Mde_obs.default () in
  if Mde_obs.enabled obs then
    Mde_obs.Counter.incr
      (Mde_obs.counter obs
         ~help:"Columnar operator work answered by the row interpreter"
         ~labels:[ ("op", op) ] "mde_relational_fallback_total")

let compiled ~op (impl : impl) compile =
  match impl with
  | `Interpreter -> None
  | `Kernel ->
    let node = compile () in
    if Option.is_none node then count_fallback op;
    node

let gather t idx =
  {
    tschema = t.tschema;
    n_rows = Array.length idx;
    cols = Array.map (fun c -> Column.gather c idx) t.cols;
  }

(* Indices of the rows flagged 1, in row order. Branch-free: each row is
   written at the next free index, which only a kept row advances; the
   loop stops once every kept row is placed, so no write overruns. *)
let selection flags n =
  let keep = ref 0 in
  for i = 0 to n - 1 do
    keep := !keep + Char.code (Bytes.unsafe_get flags i)
  done;
  let keep = !keep in
  let idx = Array.make keep 0 in
  let k = ref 0 and i = ref 0 in
  while !k < keep do
    Array.unsafe_set idx !k !i;
    k := !k + Char.code (Bytes.unsafe_get flags !i);
    incr i
  done;
  idx

let select ?pool ?(impl = (`Kernel : impl)) pred t =
  let n = t.n_rows in
  let flags = Bytes.create n in
  begin
    match
      compiled ~op:"select" impl (fun () -> Option.bind (Kernel.compile (env t) pred) Kernel.truth)
    with
    | Some node ->
      Kernel.sweep ?pool ~site:"columnar.select" ~rows:n ~reps:1 [| node |] (fun insts ->
          let b = Kernel.bool_block insts.(0) in
          fun i0 i1 -> Bytes.blit b.data b.off flags i0 (i1 - i0))
    | None ->
      Mde_par.Pool.iter ?pool ~site:"columnar.select.rows" n (fun i ->
          Bytes.unsafe_set flags i
            (if Expr.eval_bool t.tschema (row t i) pred then '\001' else '\000'))
  end;
  gather t (selection flags n)

let project names t =
  let idxs = List.map (Schema.column_index t.tschema) names in
  {
    tschema = Schema.project t.tschema names;
    n_rows = t.n_rows;
    cols = Array.of_list (List.map (fun j -> t.cols.(j)) idxs);
  }

let extend ?pool ?(impl = (`Kernel : impl)) defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  let out_schema = Schema.concat t.tschema added in
  let kenv = env t in
  (* Every defining expression reads the input schema, as Algebra.extend. *)
  let interpret ty e =
    Column.of_det_cells ?pool ~ty ~rows:t.n_rows ~reps:1 (fun i ->
        Expr.eval t.tschema (row t i) e)
  in
  let build (_, ty, e) =
    match compiled ~op:"extend" impl (fun () -> Kernel.compile kenv e) with
    | Some node -> Kernel.materialize ?pool ~rows:t.n_rows ~reps:1 node
    | None -> interpret ty e
  in
  {
    tschema = out_schema;
    n_rows = t.n_rows;
    cols = Array.append t.cols (Array.of_list (List.map build defs));
  }

(* --- keyed operators ---------------------------------------------------

   Which rows share a key is answered by [Keycode.group_ids] and
   [Keycode.join_pairs]; these operators only accumulate and gather.
   [packed = false] selects Keycode's boxed path: the oracle the packed
   path is checked against. *)

let key_cols t names =
  Array.of_list (List.map (fun n -> t.cols.(Schema.column_index t.tschema n)) names)

let equi_join ?pool ?(packed = true) ~on l r =
  (* Build right, probe left in row order, emit matches in build order —
     the exact row order Algebra.equi_join produces. *)
  let lk = key_cols l (List.map fst on) and rk = key_cols r (List.map snd on) in
  let li, ri =
    Keycode.join_pairs ?pool ~packed ~build_rows:r.n_rows ~probe_rows:l.n_rows rk lk
  in
  {
    tschema = Schema.concat l.tschema r.tschema;
    n_rows = Array.length li;
    cols =
      Array.append
        (Array.map (fun c -> Column.gather c li) l.cols)
        (Array.map (fun c -> Column.gather c ri) r.cols);
  }

(* --- grouped aggregation -------------------------------------------- *)

(* One aggregate, compiled: given each row's group id and the group
   count, it sweeps its argument block by block, accumulating unboxed
   per-group state in row order (float sums are order-sensitive, so
   this is what keeps them bit-identical to the row oracle), and returns
   the group's finished value. Aggregates own disjoint state, so the
   pool runs them side by side. *)
type feeder = ids:int array -> n_groups:int -> int -> Value.t

let arg_sweep ~rows node f =
  Kernel.sweep ~site:"columnar.group" ~rows ~reps:1 [| node |] (fun insts -> f insts.(0))

(* A never-null argument reads its null flags from a block of zeros. *)
let null_flags zeros (inst : Kernel.inst) =
  match inst.nulls with Some nb -> (nb.data, nb.off) | None -> (zeros, 0)

let zero_flags rows = Bytes.make (min rows Kernel.block_size) '\000'

(* Count, sum and sum of squares, fed as [Algebra]'s accumulator feeds
   them; the finisher reads what its aggregate needs. *)
let moments ~rows node finish : feeder =
 fun ~ids ~n_groups ->
  let count = Array.make n_groups 0 in
  let sum = Float.Array.make n_groups 0. and sum_sq = Float.Array.make n_groups 0. in
  let zeros = zero_flags rows in
  arg_sweep ~rows node (fun inst ->
      let b = Kernel.float_block inst in
      fun i0 i1 ->
        let d = b.data and o = b.off - i0 in
        let nd, no = null_flags zeros inst in
        let no = no - i0 in
        for i = i0 to i1 - 1 do
          if Bytes.unsafe_get nd (no + i) = '\000' then begin
            let x = Bigarray.Array1.unsafe_get d (o + i) and g = Array.unsafe_get ids i in
            Array.unsafe_set count g (Array.unsafe_get count g + 1);
            Float.Array.unsafe_set sum g (Float.Array.unsafe_get sum g +. x);
            Float.Array.unsafe_set sum_sq g (Float.Array.unsafe_get sum_sq g +. (x *. x))
          end
        done);
  fun g -> finish count.(g) (Float.Array.get sum g) (Float.Array.get sum_sq g)

let finish_sum _ sum _ = Value.Float sum
let finish_avg n sum _ = if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)

let finish_std n sum sum_sq =
  if n < 2 then Value.Null
  else begin
    let n = float_of_int n in
    let var = (sum_sq -. (sum *. sum /. n)) /. (n -. 1.) in
    Value.Float (sqrt (Float.max var 0.))
  end

(* Min/Max under [Value.compare] ([Float.compare] for floats: NaN lowest,
   -0. equal to 0.), a strict test so the first of equals is kept —
   exactly the row oracle's boxed update, on unboxed state. [sign] is -1
   for Min, 1 for Max. *)
let extremum ~rows node sign : feeder =
 fun ~ids ~n_groups ->
  let count = Array.make n_groups 0 in
  let zeros = zero_flags rows in
  let finish box g = if count.(g) = 0 then Value.Null else box g in
  match Kernel.kind node with
  | Kernel.Kfloat ->
    let best = Float.Array.make n_groups 0. in
    arg_sweep ~rows node (fun inst ->
        let b = Kernel.float_block inst in
        fun i0 i1 ->
          let d = b.data and o = b.off - i0 in
          let nd, no = null_flags zeros inst in
          let no = no - i0 in
          for i = i0 to i1 - 1 do
            if Bytes.unsafe_get nd (no + i) = '\000' then begin
              let x = Bigarray.Array1.unsafe_get d (o + i) and g = Array.unsafe_get ids i in
              let n = Array.unsafe_get count g in
              if n = 0 || Float.compare x (Float.Array.unsafe_get best g) = sign then
                Float.Array.unsafe_set best g x;
              Array.unsafe_set count g (n + 1)
            end
          done);
    finish (fun g -> Value.Float (Float.Array.get best g))
  | Kernel.Kint | Kernel.Kbool ->
    (* Bools compare as their 0/1 codes, as [Bool.compare] orders them. *)
    let best = Array.make n_groups 0 in
    let ints, box =
      match Kernel.kind node with
      | Kernel.Kint ->
        ( (fun inst ->
            let b = Kernel.int_block inst in
            fun k -> Array.unsafe_get b.data (b.off + k)),
          fun g -> Value.Int best.(g) )
      | _ ->
        ( (fun inst ->
            let b = Kernel.bool_block inst in
            fun k -> Char.code (Bytes.unsafe_get b.data (b.off + k))),
          fun g -> Value.Bool (best.(g) = 1) )
    in
    arg_sweep ~rows node (fun inst ->
        let read = ints inst in
        fun i0 i1 ->
          let nd, no = null_flags zeros inst in
          for i = i0 to i1 - 1 do
            if Bytes.unsafe_get nd (no + i - i0) = '\000' then begin
              let x = read (i - i0) and g = Array.unsafe_get ids i in
              let n = Array.unsafe_get count g in
              if n = 0 || compare x (Array.unsafe_get best g) = sign then
                Array.unsafe_set best g x;
              Array.unsafe_set count g (n + 1)
            end
          done);
    finish box
  | Kernel.Kstr -> invalid_arg "Columnar.extremum: string argument"

let compile_feeder ~rows kenv agg : feeder option =
  (* A string argument is left to the row oracle, which raises from
     [Value.to_float] at its first non-null cell. *)
  let numeric e finish = Option.map finish (Option.bind (Kernel.compile kenv e) Kernel.numeric) in
  match agg with
  | Algebra.Count ->
    Some
      (fun ~ids ~n_groups ->
        let count = Array.make n_groups 0 in
        Array.iter (fun g -> count.(g) <- count.(g) + 1) ids;
        fun g -> Value.Int count.(g))
  | Algebra.Count_if e ->
    Option.map
      (fun node ~ids ~n_groups ->
        let count = Array.make n_groups 0 in
        arg_sweep ~rows node (fun inst ->
            let b = Kernel.bool_block inst in
            fun i0 i1 ->
              let d = b.data and o = b.off - i0 in
              for i = i0 to i1 - 1 do
                let g = Array.unsafe_get ids i in
                Array.unsafe_set count g
                  (Array.unsafe_get count g + Char.code (Bytes.unsafe_get d (o + i)))
              done);
        fun g -> Value.Int count.(g))
      (Option.bind (Kernel.compile kenv e) Kernel.truth)
  | Algebra.Sum e -> numeric e (fun x -> moments ~rows x finish_sum)
  | Algebra.Avg e -> numeric e (fun x -> moments ~rows x finish_avg)
  | Algebra.Std e -> numeric e (fun x -> moments ~rows x finish_std)
  | Algebra.Min e | Algebra.Max e ->
    let sign = match agg with Algebra.Min _ -> -1 | _ -> 1 in
    Option.bind (Kernel.compile kenv e) (fun node ->
        match Kernel.kind node with
        | Kernel.Kstr -> None (* the row oracle raises, as for Sum *)
        | Kernel.Kint | Kernel.Kfloat | Kernel.Kbool -> Some (extremum ~rows node sign))

let group_by ?pool ?(packed = true) ?(impl = (`Kernel : impl)) ~keys ~aggs t =
  (* Every aggregate compiles before any is evaluated: one that does not
     sends the whole call to the row oracle, and no work is wasted. *)
  let feeders =
    compiled ~op:"group_by" impl (fun () ->
        let kenv = env t in
        let rec all = function
          | [] -> Some []
          | (_, a) :: rest ->
            Option.bind (compile_feeder ~rows:t.n_rows kenv a) (fun f ->
                Option.map (fun fs -> f :: fs) (all rest))
        in
        Option.map Array.of_list (all aggs))
  in
  match feeders with
  | None -> of_table (Algebra.group_by ~keys ~aggs (to_table t))
  | Some feeders ->
    let key_cols = key_cols t keys in
    let key_schema_cols = List.map (fun k -> (k, Schema.column_type t.tschema k)) keys in
    let out_schema =
      Schema.of_list
        (key_schema_cols @ List.map (fun (n, a) -> (n, Algebra.agg_type a)) aggs)
    in
    let { Keycode.ids; firsts } =
      Keycode.group_ids ?pool ~packed ~n_rows:t.n_rows key_cols
    in
    (* A global aggregate over an empty table still emits one row. *)
    let n_groups =
      if keys = [] then max 1 (Array.length firsts) else Array.length firsts
    in
    let finished = Array.make (Array.length feeders) (fun _ -> Value.Null) in
    Mde_par.Pool.iter ?pool ~site:"columnar.group.aggs" (Array.length feeders) (fun a ->
        finished.(a) <- feeders.(a) ~ids ~n_groups);
    (* Keys come from each group's first row, aggregates from the finishers. *)
    let key_out = Array.map (fun c -> Column.gather c firsts) key_cols in
    let agg_out =
      Array.of_list
        (List.mapi
           (fun a (_, agg) ->
             Column.of_det_cells ~ty:(Algebra.agg_type agg) ~rows:n_groups ~reps:1
               finished.(a))
           aggs)
    in
    { tschema = out_schema; n_rows = n_groups; cols = Array.append key_out agg_out }

(* --- ordering, distinct, limit -------------------------------------- *)

(* Per-column typed comparator agreeing with [Value.compare] on a typed
   column's possible values: Null sorts below everything, floats through
   [Float.compare] (NaN lowest; -0. and 0. tie and keep input order),
   strings through the dictionary. *)
let cmp_nulls is_null cmp i j =
  match (is_null i, is_null j) with
  | true, true -> 0
  | true, false -> -1
  | false, true -> 1
  | false, false -> cmp i j

let slot_compare col =
  let masked nulls =
    match nulls with
    | None -> fun _ -> false
    | Some m -> fun i -> Column.Bitset.get m i 0
  in
  match Column.view col with
  | Column.Vfloat { data; nulls; _ } ->
    cmp_nulls (masked nulls) (fun i j -> Float.compare (Array1.get data i) (Array1.get data j))
  | Column.Vint { data; nulls; _ } ->
    cmp_nulls (masked nulls) (fun i j -> Int.compare data.(i) data.(j))
  | Column.Vbool { data; nulls; _ } ->
    (* 0/1 under Int.compare agrees with Bool.compare. *)
    cmp_nulls (masked nulls) (fun i j -> Int.compare data.(i) data.(j))
  | Column.Vstring { codes; dict; _ } ->
    cmp_nulls
      (fun i -> codes.(i) < 0)
      (fun i j -> String.compare dict.(codes.(i)) dict.(codes.(j)))
  | Column.Vvalues { data; _ } -> fun i j -> Value.compare data.(i) data.(j)

let order_by ?(descending = false) ?(packed = true) names t =
  let cols = key_cols t names in
  match
    if packed then Keycode.sort_perm ~descending cols ~n_rows:t.n_rows else None
  with
  | Some perm ->
    (* Radix sort over order-preserving images: they agree with the
       comparator chain below on order and ties, so the permutation is
       identical. *)
    gather t perm
  | None ->
  let cmps = Array.to_list (Array.map slot_compare cols) in
  let key_cmp i j =
    let rec go = function
      | [] -> 0
      | c :: rest ->
        let v = c i j in
        if v <> 0 then v else go rest
    in
    go cmps
  in
  let perm = Array.init t.n_rows Fun.id in
  (* Array.sort is not stable; break ties on the original index, exactly
     as Algebra.order_by (descending negates keys, never the tiebreak). *)
  Array.sort
    (fun a b ->
      let c =
        let c = key_cmp a b in
        if descending then -c else c
      in
      if c <> 0 then c else Int.compare a b)
    perm;
  gather t perm

let distinct ?pool ?(packed = true) t =
  (* Null cells are ordinary keys here: Null = Null under Value.Key. *)
  gather t (Keycode.group_ids ?pool ~packed ~n_rows:t.n_rows t.cols).firsts

let limit n t =
  (* Not an assert: validation must survive [-noassert] builds. *)
  if n < 0 then invalid_arg "Columnar.limit: negative row count";
  gather t (Array.init (min n t.n_rows) Fun.id)
