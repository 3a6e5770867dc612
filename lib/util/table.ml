type t = {
  title : string;
  columns : string list;
  rows : string list Vec.t;
}

let create ~title ~columns = { title; columns; rows = Vec.create () }

let add_row t row = Vec.push t.rows row

let widths t =
  let n = List.length t.columns in
  let w = Array.make n 0 in
  let account row =
    List.iteri
      (fun i cell -> if i < n then w.(i) <- max w.(i) (String.length cell))
      row
  in
  account t.columns;
  Vec.iter account t.rows;
  w

let render_row w row buf =
  let n = Array.length w in
  List.iteri
    (fun i cell ->
      if i < n then begin
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < n - 1 then
          Buffer.add_string buf (String.make (w.(i) - String.length cell) ' ')
      end)
    row;
  Buffer.add_char buf '\n'

let to_string t =
  let w = widths t in
  let total = Array.fold_left ( + ) 0 w + (2 * (Array.length w - 1)) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  render_row w t.columns buf;
  Buffer.add_string buf (String.make (max total 4) '-');
  Buffer.add_char buf '\n';
  Vec.iter (fun row -> render_row w row buf) t.rows;
  Buffer.contents buf

let print t = print_string (to_string t)

let cell_sci x = Printf.sprintf "%.3e" x

let cell_duration seconds = Format.asprintf "%a" Timer.pp_duration seconds
