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

(* Row-chunked parallel fill over disjoint per-row slots: bit-identical
   to the sequential loop (same argument as [Kernel.materialize]). *)
let fill_rows ?pool ~site n f = Mde_par.Pool.iter ?pool ~site n f

let gather t idx =
  {
    tschema = t.tschema;
    n_rows = Array.length idx;
    cols = Array.map (fun c -> Column.gather c idx) t.cols;
  }

let select ?pool ?(impl = (`Kernel : impl)) pred t =
  let test =
    let compiled =
      match impl with
      | `Interpreter -> None
      | `Kernel -> Option.bind (Kernel.compile (env t) pred) Kernel.as_pred
    in
    match compiled with
    | Some p -> fun i -> p i 0
    | None -> fun i -> Expr.eval_bool t.tschema (row t i) pred
  in
  let flags = Array.make t.n_rows false in
  fill_rows ?pool ~site:"columnar.select" t.n_rows (fun i -> flags.(i) <- test i);
  let n_keep = Array.fold_left (fun n b -> if b then n + 1 else n) 0 flags in
  let idx = Array.make n_keep 0 in
  let k = ref 0 in
  Array.iteri
    (fun i b ->
      if b then begin
        idx.(!k) <- i;
        incr k
      end)
    flags;
  gather t idx

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
    let compiled =
      match impl with `Interpreter -> None | `Kernel -> Kernel.compile kenv e
    in
    match compiled with
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

(* Typed per-group accumulator, one per (group, aggregate). The same
   shape as Algebra's: count/sum/sum_sq fed in row order so float sums
   come out bit-identical, min/max kept as boxed values under
   [Value.compare] with first-of-equals retained. Sum/Avg/Std feeders
   skip the min/max updates (unobservable through their finishers) to
   stay unboxed on the hot path. *)
type kacc = {
  mutable kcount : int;
  mutable ksum : float;
  mutable ksum_sq : float;
  mutable kvmin : Value.t;
  mutable kvmax : Value.t;
}

let fresh_kacc () =
  { kcount = 0; ksum = 0.; ksum_sq = 0.; kvmin = Value.Null; kvmax = Value.Null }

type feeder = { feed : kacc -> int -> unit; finish : kacc -> Value.t }

let finish_count a = Value.Int a.kcount
let finish_sum a = Value.Float a.ksum

let finish_avg a =
  if a.kcount = 0 then Value.Null
  else Value.Float (a.ksum /. float_of_int a.kcount)

let finish_std a =
  if a.kcount < 2 then Value.Null
  else begin
    let n = float_of_int a.kcount in
    let var = (a.ksum_sq -. (a.ksum *. a.ksum /. n)) /. (n -. 1.) in
    Value.Float (sqrt (Float.max var 0.))
  end

(* Pooled aggregation is two-phase, like Bundle's pooled sweeps: the
   per-row source values are evaluated row-chunked into a flat scratch
   buffer (each row owns its slot), then the order-sensitive
   accumulation replays from the scratch sequentially in row order — so
   the pooled result is the sequential result bit for bit. *)

let float_feeder ?pool ~rows kenv e finish =
  Option.map
    (fun (cell : Kernel.cell) ->
      let null, value =
        match pool with
        | None -> ((fun i -> cell.null i 0), fun i -> cell.value i 0)
        | Some _ ->
          let data = Array1.create Bigarray.float64 Bigarray.c_layout rows in
          let nulls = Bytes.make rows '\000' in
          Mde_par.Pool.iter ?pool ~site:"columnar.group.scratch" rows (fun i ->
              if cell.null i 0 then Bytes.set nulls i '\001'
              else Array1.set data i (cell.value i 0));
          ((fun i -> Bytes.get nulls i <> '\000'), fun i -> Array1.get data i)
      in
      let feed a i =
        if not (null i) then begin
          let x = value i in
          a.kcount <- a.kcount + 1;
          a.ksum <- a.ksum +. x;
          a.ksum_sq <- a.ksum_sq +. (x *. x)
        end
      in
      { feed; finish })
    (Option.bind (Kernel.compile kenv e) Kernel.as_float_cell)

(* Min/Max read the boxed cell so string inputs raise in [Value.to_float]
   exactly as the row oracle's feed does. *)
let value_feeder ?pool ~rows kenv e finish =
  Option.map
    (fun node ->
      let read =
        match pool with
        | None -> fun i -> Kernel.node_value node i 0
        | Some _ ->
          let vals =
            Mde_par.Pool.init ?pool ~site:"columnar.group.scratch" rows (fun i ->
                Kernel.node_value node i 0)
          in
          fun i -> vals.(i)
      in
      let feed a i =
        match read i with
        | Value.Null -> ()
        | v ->
          let x = Value.to_float v in
          a.kcount <- a.kcount + 1;
          a.ksum <- a.ksum +. x;
          a.ksum_sq <- a.ksum_sq +. (x *. x);
          if Value.is_null a.kvmin || Value.compare v a.kvmin < 0 then a.kvmin <- v;
          if Value.is_null a.kvmax || Value.compare v a.kvmax > 0 then a.kvmax <- v
      in
      { feed; finish })
    (Kernel.compile kenv e)

let compile_feeder ?pool ~rows kenv = function
  | Algebra.Count ->
    Some { feed = (fun a _ -> a.kcount <- a.kcount + 1); finish = finish_count }
  | Algebra.Count_if e ->
    Option.map
      (fun p ->
        let test =
          match pool with
          | None -> fun i -> p i 0
          | Some _ ->
            let flags = Bytes.make rows '\000' in
            Mde_par.Pool.iter ?pool ~site:"columnar.group.scratch" rows (fun i ->
                if p i 0 then Bytes.set flags i '\001');
            fun i -> Bytes.get flags i <> '\000'
        in
        {
          feed = (fun a i -> if test i then a.kcount <- a.kcount + 1);
          finish = finish_count;
        })
      (Option.bind (Kernel.compile kenv e) Kernel.as_pred)
  | Algebra.Sum e -> float_feeder ?pool ~rows kenv e finish_sum
  | Algebra.Avg e -> float_feeder ?pool ~rows kenv e finish_avg
  | Algebra.Std e -> float_feeder ?pool ~rows kenv e finish_std
  | Algebra.Min e -> value_feeder ?pool ~rows kenv e (fun a -> a.kvmin)
  | Algebra.Max e -> value_feeder ?pool ~rows kenv e (fun a -> a.kvmax)

let group_by ?pool ?(packed = true) ?(impl = (`Kernel : impl)) ~keys ~aggs t =
  let feeders =
    match impl with
    | `Interpreter -> None
    | `Kernel ->
      let kenv = env t in
      let rec all = function
        | [] -> Some []
        | (_, a) :: rest ->
          Option.bind (compile_feeder ?pool ~rows:t.n_rows kenv a) (fun f ->
              Option.map (fun fs -> f :: fs) (all rest))
      in
      Option.map Array.of_list (all aggs)
  in
  match feeders with
  | None ->
    (* Any aggregate the compiler does not cover drops the whole group-by
       to the row oracle itself — identical by construction. *)
    of_table (Algebra.group_by ~keys ~aggs (to_table t))
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
    let accs =
      Array.init n_groups (fun _ -> Array.map (fun _ -> fresh_kacc ()) feeders)
    in
    (* Accumulators feed in row order, so float sums match the oracle's. *)
    for i = 0 to t.n_rows - 1 do
      let group = accs.(ids.(i)) in
      Array.iteri (fun a f -> f.feed group.(a) i) feeders
    done;
    (* Keys come from each group's first row, aggregates from the finishers. *)
    let key_out = Array.map (fun c -> Column.gather c firsts) key_cols in
    let agg_out =
      Array.of_list
        (List.mapi
           (fun a (_, agg) ->
             Column.of_det_cells ~ty:(Algebra.agg_type agg) ~rows:n_groups ~reps:1
               (fun g -> feeders.(a).finish accs.(g).(a)))
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
