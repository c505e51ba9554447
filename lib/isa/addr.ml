type t = int
type line = int

let line_bits = 6
let line_size = 1 lsl line_bits
let line_of addr = addr lsr line_bits
let base_of_line line = line lsl line_bits
let offset addr = addr land (line_size - 1)

let count_lines_of_range addr ~bytes =
  if bytes <= 0 then 0 else line_of (addr + bytes - 1) - line_of addr + 1

let lines_of_range addr ~bytes =
  if bytes <= 0 then []
  else begin
    let first = line_of addr and last = line_of (addr + bytes - 1) in
    let rec go l acc = if l < first then acc else go (l - 1) (l :: acc) in
    go last []
  end

let set_index line ~sets =
  assert (sets > 0 && sets land (sets - 1) = 0);
  line land (sets - 1)

let pp_line fmt line = Format.fprintf fmt "L:0x%x" (base_of_line line)
