(* Little-endian limbs in base 2^30.  The representation is normalized:
   no trailing zero limbs, and zero is the empty array.  Base 2^30 keeps
   every intermediate product of two limbs plus a carry within the 63-bit
   OCaml int range (30 + 30 + small). *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]

let is_zero n = Array.length n = 0

let normalize (a : int array) : t =
  let len = ref (Array.length a) in
  while !len > 0 && a.(!len - 1) = 0 do
    decr len
  done;
  if !len = Array.length a then a else Array.sub a 0 !len

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs acc n = if n = 0 then List.rev acc else limbs ((n land limb_mask) :: acc) (n lsr limb_bits) in
    Array.of_list (limbs [] n)
  end

let to_int_opt n =
  (* At most three 30-bit limbs can fit in a 63-bit int, and only if the
     combined width stays under [Sys.int_size - 1]. *)
  let bits_available = Sys.int_size - 1 in
  let rec go i acc shift =
    if i = Array.length n then Some acc
    else if shift >= bits_available then None
    else if shift + limb_bits > bits_available && n.(i) lsr (bits_available - shift) <> 0 then None
    else go (i + 1) (acc lor (n.(i) lsl shift)) (shift + limb_bits)
  in
  go 0 0 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = !carry + (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let succ n = add n one

(* Saturating subtraction: returns zero when b >= a. *)
let sub (a : t) (b : t) : t =
  if compare a b <= 0 then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    normalize r
  end

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (n : t) k =
  if is_zero n || k = 0 then n
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let ln = Array.length n in
    let r = Array.make (ln + limb_shift + 1) 0 in
    for i = 0 to ln - 1 do
      let v = n.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let pow2 k = shift_left one k

let num_bits n =
  let ln = Array.length n in
  if ln = 0 then 0
  else begin
    let top = n.(ln - 1) in
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    ((ln - 1) * limb_bits) + width 0 top
  end

(* Division of the whole number by a small int, used only for decimal
   printing.  Returns the quotient and remainder. *)
let divmod_small (n : t) d =
  let ln = Array.length n in
  let q = Array.make ln 0 in
  let rem = ref 0 in
  for i = ln - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor n.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

let to_string n =
  if is_zero n then "0"
  else begin
    (* Peel nine decimal digits at a time (10^9 < 2^30 * small, fits). *)
    let chunks = ref [] in
    let cur = ref n in
    while not (is_zero !cur) do
      let q, r = divmod_small !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string s =
  if s = "" then invalid_arg "Bignat.of_string: empty";
  String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bignat.of_string: non-digit") s;
  let ten = of_int 10 in
  let acc = ref zero in
  String.iter (fun c -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))) s;
  !acc

let to_scientific n =
  let s = to_string n in
  let digits = String.length s in
  if digits <= 4 then s
  else Printf.sprintf "%ce%d" s.[0] (digits - 1)
