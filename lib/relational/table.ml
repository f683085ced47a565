type row = Value.t array

(* A table holds its boxed rows, its typed columns, or both: whichever
   form it was built from, plus the other one once something reads it.
   Each cache is built completely and then published with one field
   write, so a domain reading the field sees either [None] or the
   finished immutable value. Two domains that race build equal values
   and one write wins. [Lazy] is not used: forcing one [Lazy.t] from two
   domains at once raises. Invariant: at least one field is [Some]. *)
type t = {
  schema : Schema.t;
  n_rows : int;
  mutable rows : row array option;
  mutable cols : Column.t array option;
}

(* --- validation ------------------------------------------------------ *)

let arity_error got expected =
  invalid_arg (Printf.sprintf "Table: row arity %d, schema arity %d" got expected)

(* [fits ty v]: [v] may sit in a column declared [ty]. *)
let fits (ty : Value.ty) (v : Value.t) =
  match (ty, v) with
  | _, Value.Null
  | Value.Tint, Value.Int _
  | Value.Tfloat, Value.Float _
  | Value.Tstring, Value.String _
  | Value.Tbool, Value.Bool _ ->
    true
  | _ -> false

let check_cell names tys j v =
  if not (fits tys.(j) v) then
    invalid_arg
      (Printf.sprintf "Table: column %S expects %s, got %s" names.(j)
         (Value.type_name tys.(j))
         (Value.type_name (Option.get (Value.type_of v))))

let names_and_types schema =
  let cols = Array.of_list (Schema.columns schema) in
  (Array.map (fun c -> c.Schema.name) cols, Array.map (fun c -> c.Schema.ty) cols)

let of_rows schema rows =
  let names, tys = names_and_types schema in
  let arity = Array.length tys in
  Array.iter
    (fun row ->
      if Array.length row <> arity then arity_error (Array.length row) arity;
      for j = 0 to arity - 1 do
        check_cell names tys j row.(j)
      done)
    rows;
  { schema; n_rows = Array.length rows; rows = Some rows; cols = None }

(* Typed storage of the declared type holds only cells that fit it. *)
let storage_fits (ty : Value.ty) col =
  match (ty, Column.view col) with
  | Value.Tint, Column.Vint _
  | Value.Tfloat, Column.Vfloat _
  | Value.Tbool, Column.Vbool _
  | Value.Tstring, Column.Vstring _ ->
    true
  | _ -> false

let of_columns schema ~n_rows cols =
  let names, tys = names_and_types schema in
  let arity = Array.length tys in
  if n_rows < 0 then invalid_arg "Table.of_columns: negative row count";
  if Array.length cols <> arity then arity_error (Array.length cols) arity;
  Array.iteri
    (fun j c ->
      if not (Column.det c) then
        invalid_arg (Printf.sprintf "Table.of_columns: column %S is not deterministic" names.(j));
      if Column.rows c <> n_rows then
        invalid_arg
          (Printf.sprintf "Table.of_columns: column %S has %d rows, expected %d" names.(j)
             (Column.rows c) n_rows))
    cols;
  (* Boxed or mistyped storage is checked cell by cell, row-major like
     [of_rows], so the first offending cell and its message agree. *)
  let suspect =
    List.filter (fun j -> not (storage_fits tys.(j) cols.(j))) (List.init arity Fun.id)
  in
  if suspect <> [] then
    for i = 0 to n_rows - 1 do
      List.iter (fun j -> check_cell names tys j (Column.value cols.(j) i 0)) suspect
    done;
  { schema; n_rows; rows = None; cols = Some cols }

let create schema row_list = of_rows schema (Array.of_list row_list)
let empty schema = { schema; n_rows = 0; rows = Some [||]; cols = None }
let schema t = t.schema
let cardinality t = t.n_rows

(* --- the two representations ----------------------------------------- *)

let rows t =
  match t.rows with
  | Some rows -> rows
  | None ->
    let cols = Option.get t.cols in
    let rows = Array.init t.n_rows (fun _ -> Array.make (Array.length cols) Value.Null) in
    Array.iteri
      (fun j c ->
        for i = 0 to t.n_rows - 1 do
          rows.(i).(j) <- Column.value c i 0
        done)
      cols;
    t.rows <- Some rows;
    rows

let columns t =
  match t.cols with
  | Some cols -> cols
  | None ->
    let rows = Option.get t.rows in
    let cols =
      Array.of_list
        (List.mapi
           (fun j (c : Schema.column) ->
             Column.of_det_cells ~ty:c.ty ~rows:t.n_rows ~reps:1 (fun i -> rows.(i).(j)))
           (Schema.columns t.schema))
    in
    t.cols <- Some cols;
    cols

type form = Rows | Columns | Both

let form t =
  match (t.rows, t.cols) with
  | Some _, Some _ -> Both
  | Some _, None -> Rows
  | None, _ -> Columns

let rename t renames = { t with schema = Schema.rename t.schema renames }

(* Cell reads use whichever form is already built. *)
let get_at t i j =
  match t.rows with
  | Some rows -> rows.(i).(j)
  | None -> Column.value (columns t).(j) i 0

let get t i col = get_at t i (Schema.column_index t.schema col)

let column t col =
  let j = Schema.column_index t.schema col in
  Array.init t.n_rows (fun i -> get_at t i j)

let column_floats t col =
  let j = Schema.column_index t.schema col in
  Array.init t.n_rows (fun i -> Value.to_float (get_at t i j))

let iter f t = Array.iter f (rows t)

let append a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Table.append: schema mismatch";
  {
    schema = a.schema;
    n_rows = a.n_rows + b.n_rows;
    rows = Some (Array.append (rows a) (rows b));
    cols = None;
  }

let pp ?(max_rows = 20) ppf t =
  let names = Schema.column_names t.schema in
  let shown = min max_rows (cardinality t) in
  let cells =
    List.map
      (fun name ->
        let body = List.init shown (fun i -> Value.to_display (get t i name)) in
        name :: body)
      names
  in
  let widths = List.map (fun col -> List.fold_left (fun w s -> max w (String.length s)) 0 col) cells in
  let print_row k =
    List.iteri
      (fun j col ->
        let w = List.nth widths j in
        Format.fprintf ppf "%s%-*s" (if j = 0 then "| " else " | ") w (List.nth col k))
      cells;
    Format.fprintf ppf " |@,"
  in
  Format.fprintf ppf "@[<v>";
  print_row 0;
  List.iteri
    (fun j w ->
      Format.fprintf ppf "%s%s" (if j = 0 then "|-" else "-|-") (String.make w '-'))
    widths;
  Format.fprintf ppf "-|@,";
  for k = 1 to shown do
    print_row k
  done;
  if cardinality t > shown then Format.fprintf ppf "... (%d rows total)@," (cardinality t);
  Format.fprintf ppf "@]"
