type field =
  | Int of int
  | Float of float
  | Str of string
  | Floats of float array
  | Ints of int array

type payload = (string * field) list

type t = { algorithm : string; iteration : int; payload : payload }

exception Corrupt of string

let version = "kf-ckpt/1"
let writes = Kf_obs.Counter.make "resil.ckpt_writes"
let rewrites = Kf_obs.Counter.make "resil.ckpt_rewrites"
let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- FNV-1a 64 -----------------------------------------------------------

   The hash state lives in two untagged 32-bit halves: the FNV prime
   0x100000001B3 is 2^40 + 0x1b3, so mod 2^64 the per-byte product
   (hi·2^32 + l)·(2^40 + 0x1b3), with l = lo xor byte, reduces to
     lo' = (l·0x1b3) mod 2^32
     hi' = ((l << 8) + hi·0x1b3 + (l·0x1b3 >> 32)) mod 2^32
   — all intermediates stay below 2^42, inside a native int, keeping
   megabyte checkpoints (and the dist wire frames that reuse this
   function) free of per-byte boxed-Int64 multiplies. *)

let fnv_mask = 0xFFFFFFFF

let fnv_string s =
  let lo = ref 0x84222325 and hi = ref 0xCBF29CE4 in
  String.iter
    (fun c ->
      let l = !lo lxor Char.code c in
      let m = l * 0x1b3 in
      lo := m land fnv_mask;
      hi := ((l lsl 8) + (!hi * 0x1b3) + (m lsr 32)) land fnv_mask)
    s;
  Int64.logor
    (Int64.shift_left (Int64.of_int !hi) 32)
    (Int64.of_int !lo)

let hex64 h = Printf.sprintf "%016Lx" h

let checksum_floats v =
  let lo = ref 0x84222325 and hi = ref 0xCBF29CE4 in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      for k = 0 to 7 do
        let byte =
          Int64.to_int (Int64.shift_right_logical bits (k * 8)) land 0xff
        in
        let l = !lo lxor byte in
        let m = l * 0x1b3 in
        lo := m land fnv_mask;
        hi := ((l lsl 8) + (!hi * 0x1b3) + (m lsr 32)) land fnv_mask
      done)
    v;
  hex64
    (Int64.logor
       (Int64.shift_left (Int64.of_int !hi) 32)
       (Int64.of_int !lo))

(* --- payload encoding ----------------------------------------------------- *)

(* field := tag u8 · name-len u16le · name · body
   bodies: Int/Float = 8 bytes le; Str = u32le length + bytes;
   Floats/Ints = u32le count + 8·count bytes le. Floats travel as
   [Int64.bits_of_float] so roundtrips are bit-exact (NaN payloads and
   signed zeros included). *)

let tag_of = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Floats _ -> 3
  | Ints _ -> 4

let add_u16 b n =
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff))

let add_u32 b n =
  for k = 0 to 3 do
    Buffer.add_char b (Char.chr ((n lsr (k * 8)) land 0xff))
  done

let encode payload =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, f) ->
      if String.length name > 0xffff then
        invalid_arg "Ckpt.encode: field name too long";
      Buffer.add_char b (Char.chr (tag_of f));
      add_u16 b (String.length name);
      Buffer.add_string b name;
      match f with
      | Int n -> Buffer.add_int64_le b (Int64.of_int n)
      | Float x -> Buffer.add_int64_le b (Int64.bits_of_float x)
      | Str s ->
          add_u32 b (String.length s);
          Buffer.add_string b s
      | Floats v ->
          add_u32 b (Array.length v);
          Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) v
      | Ints v ->
          add_u32 b (Array.length v);
          Array.iter (fun n -> Buffer.add_int64_le b (Int64.of_int n)) v)
    payload;
  Buffer.contents b

let decode s =
  let n = String.length s in
  let pos = ref 0 in
  let need k what =
    if !pos + k > n then corrupt "checkpoint payload truncated in %s" what
  in
  let u8 what =
    need 1 what;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u16 what =
    need 2 what;
    let v = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
    pos := !pos + 2;
    v
  in
  let u32 what =
    need 4 what;
    let v = ref 0 in
    for k = 3 downto 0 do
      v := (!v lsl 8) lor Char.code s.[!pos + k]
    done;
    pos := !pos + 4;
    !v
  in
  let i64 what =
    need 8 what;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let str len what =
    need len what;
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  let fields = ref [] in
  while !pos < n do
    let tag = u8 "field tag" in
    let name = str (u16 "field name length") "field name" in
    let f =
      match tag with
      | 0 -> Int (Int64.to_int (i64 name))
      | 1 -> Float (Int64.float_of_bits (i64 name))
      | 2 -> Str (str (u32 name) name)
      | 3 ->
          let c = u32 name in
          Floats (Array.init c (fun _ -> Int64.float_of_bits (i64 name)))
      | 4 ->
          let c = u32 name in
          Ints (Array.init c (fun _ -> Int64.to_int (i64 name)))
      | t -> corrupt "unknown field tag %d for %S" t name
    in
    fields := (name, f) :: !fields
  done;
  List.rev !fields

(* --- accessors ------------------------------------------------------------ *)

let find payload name = List.assoc_opt name payload

let get_int payload name =
  match find payload name with
  | Some (Int n) -> n
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want int)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_float payload name =
  match find payload name with
  | Some (Float x) -> x
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want float)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_str payload name =
  match find payload name with
  | Some (Str s) -> s
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want string)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_floats payload name =
  match find payload name with
  | Some (Floats v) -> v
  | Some _ ->
      corrupt "checkpoint field %S has the wrong type (want float array)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_ints payload name =
  match find payload name with
  | Some (Ints v) -> v
  | Some _ ->
      corrupt "checkpoint field %S has the wrong type (want int array)" name
  | None -> corrupt "checkpoint is missing field %S" name

(* --- file I/O ------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let parse_file path raw =
  let fail what = corrupt "%s: %s" path what in
  let line_end from =
    match String.index_from_opt raw from '\n' with
    | Some i -> i
    | None -> fail "not a kf-ckpt file (missing header)"
  in
  let e1 = line_end 0 in
  let magic = String.sub raw 0 e1 in
  if not (String.length magic >= 8 && String.sub magic 0 8 = "kf-ckpt/") then
    fail "not a kf-ckpt file";
  if magic <> version then
    corrupt "%s: checkpoint version %S is not supported (this build reads %S)"
      path magic version;
  let e2 = line_end (e1 + 1) in
  let sum = String.sub raw (e1 + 1) (e2 - e1 - 1) in
  let e3 = line_end (e2 + 1) in
  let len_s = String.sub raw (e2 + 1) (e3 - e2 - 1) in
  let len =
    match int_of_string_opt len_s with
    | Some n when n >= 0 -> n
    | _ -> fail "malformed payload length"
  in
  if String.length raw - e3 - 1 <> len then
    corrupt "%s: truncated checkpoint (payload has %d of %d bytes)" path
      (String.length raw - e3 - 1)
      len;
  let body = String.sub raw (e3 + 1) len in
  if hex64 (fnv_string body) <> sum then
    corrupt "%s: checksum mismatch — checkpoint is damaged, refusing to load"
      path;
  body

let read_with_checksum ~path =
  let body = parse_file path (read_file path) in
  let payload = decode body in
  ( {
      algorithm = get_str payload "ckpt.algorithm";
      iteration = get_int payload "ckpt.iteration";
      payload;
    },
    hex64 (fnv_string body) )

let read ~path = fst (read_with_checksum ~path)

let render ~algorithm ~iteration payload =
  let body =
    encode
      (("ckpt.algorithm", Str algorithm)
      :: ("ckpt.iteration", Int iteration)
      :: payload)
  in
  Printf.sprintf "%s\n%s\n%d\n%s" version (hex64 (fnv_string body))
    (String.length body) body

let write_raw path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     (* an injected truncation drops the payload's tail before the
        close — exactly what a crash mid-write leaves behind *)
     if Fault.fire Trunc ~point:"ckpt.write" then begin
       flush oc;
       let keep = max 0 (String.length data - (String.length data / 3) - 1) in
       Unix.ftruncate (Unix.descr_of_out_channel oc) keep
     end;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  tmp

let path_var =
  Kf_obs.Env.path "KF_CKPT"
    ~doc:"Checkpoint file kf train writes (--checkpoint)." ~default:"none"

let write ~path ~algorithm ~iteration payload =
  let data = render ~algorithm ~iteration payload in
  let rec attempt n =
    let tmp = write_raw path data in
    let ok =
      match parse_file tmp (read_file tmp) with
      | _ -> true
      | exception Corrupt _ -> false
    in
    if ok then begin
      Sys.rename tmp path;
      Kf_obs.Counter.incr writes
    end
    else begin
      (try Sys.remove tmp with Sys_error _ -> ());
      Kf_obs.Counter.incr rewrites;
      Kf_obs.Trace.instant "ckpt.rewrite" ~args:[ ("path", path) ];
      if n >= 3 then
        corrupt "%s: checkpoint write kept failing verification after %d attempts"
          path n
      else attempt (n + 1)
    end
  in
  attempt 1
