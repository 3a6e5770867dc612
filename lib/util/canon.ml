let rec add_int buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_int buf (n lsr 7)
  end

let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_option add buf = function
  | None -> Buffer.add_char buf '\000'
  | Some x ->
    Buffer.add_char buf '\001';
    add buf x
