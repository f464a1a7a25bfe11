(* OpenMetrics v1 text exposition.

   Renders a [Metrics.snapshot] in the exposition format Prometheus
   and its ecosystem scrape:

     # TYPE kf_serve_requests counter
     # HELP kf_serve_requests Requests accepted.
     kf_serve_requests_total{model="lr"} 42
     # TYPE kf_serve_request_latency_us histogram
     kf_serve_request_latency_us_bucket{model="lr",le="97.65625"} 17
     kf_serve_request_latency_us_bucket{model="lr",le="+Inf"} 42
     kf_serve_request_latency_us_count{model="lr"} 42
     kf_serve_request_latency_us_sum{model="lr"} 3201.5
     # EOF

   Counters carry the mandatory [_total] suffix; histogram buckets are
   cumulative with the implicit [+Inf] appended; the document ends with
   [# EOF].  Only populated buckets are emitted — the geometric grid
   has 96 of them and a scrape of mostly-empty series would be noise.

   [parse] reads an exposition back into a snapshot, which is how
   [kf top] consumes a scrape; the test suite also validates the writer
   with its own hand-written parser (test/helpers/om_helper.ml), so the
   emitter is not checking only against its own reader. *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  The profiling layer's
   dotted counter names (serve.scrapes) sanitise to underscores. *)
let sanitize_name s =
  if s = "" then "_"
  else
    String.mapi
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
        | '0' .. '9' when i > 0 -> c
        | _ -> '_')
      s

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_str labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label v))
             labels)
      ^ "}"

(* The shortest of %.15g, %.16g and %.17g that reads back as [v], so
   [parse] recovers every value bit for bit; integers without the
   trailing dot so counter values read naturally, and the spellings the
   format gives the non-finite values. *)
let number v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else shortest (p + 1)
    in
    shortest 15

let add_sample b ~name ~labels v =
  Buffer.add_string b name;
  Buffer.add_string b (label_str labels);
  Buffer.add_char b ' ';
  Buffer.add_string b (number v);
  Buffer.add_char b '\n'

let add_family_header b ~name ~kind ~help =
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
  if help <> "" then
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n" name (escape_label help))

let to_buffer b (snap : Metrics.snapshot) =
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun (s : Metrics.sample) ->
      let name = sanitize_name s.Metrics.s_name in
      let labels = s.Metrics.s_labels in
      let kind =
        match s.Metrics.s_value with
        | Metrics.Vcounter _ -> "counter"
        | Metrics.Vgauge _ -> "gauge"
        | Metrics.Vhist _ -> "histogram"
      in
      if not (Hashtbl.mem seen_family name) then begin
        Hashtbl.add seen_family name ();
        add_family_header b ~name ~kind ~help:s.Metrics.s_help
      end;
      match s.Metrics.s_value with
      | Metrics.Vcounter v -> add_sample b ~name:(name ^ "_total") ~labels v
      | Metrics.Vgauge v -> add_sample b ~name ~labels v
      | Metrics.Vhist h ->
          List.iter
            (fun (le, cum) ->
              add_sample b ~name:(name ^ "_bucket")
                ~labels:(labels @ [ ("le", number le) ])
                (float_of_int cum))
            (Histogram.cumulative_buckets h);
          add_sample b ~name:(name ^ "_bucket")
            ~labels:(labels @ [ ("le", "+Inf") ])
            (float_of_int (Histogram.count h));
          add_sample b ~name:(name ^ "_count") ~labels
            (float_of_int (Histogram.count h));
          add_sample b ~name:(name ^ "_sum") ~labels (Histogram.sum h))
    snap.Metrics.samples;
  Buffer.add_string b "# EOF\n"

let render snap =
  let b = Buffer.create 4096 in
  to_buffer b snap;
  Buffer.contents b

(* --- reading an exposition back ----------------------------------------- *)

(* Raised by the line scanners below and caught by [parse] alone. *)
exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type kind = Counter | Gauge | Histogram

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

(* The name starting at [i], and the index just past it. *)
let scan_name line i =
  let j = ref i in
  while !j < String.length line && is_name_char line.[!j] do
    incr j
  done;
  if !j = i then malformed "expected a name at column %d of %S" i line;
  (String.sub line i (!j - i), !j)

(* Undo [escape_label] from [i] up to an unescaped [close] character (a
   label value's quote, so a '}' or ',' inside it is data) or, with no
   [close], to the end of the line (HELP text).  Returns the text and the
   index after the close. *)
let unescape ?close line i =
  let n = String.length line and b = Buffer.create 16 in
  let rec go j =
    if j >= n then
      if close = None then (Buffer.contents b, j)
      else malformed "unterminated label value in %S" line
    else
      match line.[j] with
      | '\\' when j + 1 < n ->
          Buffer.add_char b (if line.[j + 1] = 'n' then '\n' else line.[j + 1]);
          go (j + 2)
      | '\\' -> malformed "dangling escape in %S" line
      | c when Some c = close -> (Buffer.contents b, j + 1)
      | c ->
          Buffer.add_char b c;
          go (j + 1)
  in
  go i

(* [name="value",...}] from just past the opening brace. *)
let scan_labels line i =
  let n = String.length line in
  let rec go acc j =
    if j < n && line.[j] = '}' then (List.rev acc, j + 1)
    else begin
      let key, j = scan_name line j in
      if j + 1 >= n || line.[j] <> '=' || line.[j + 1] <> '"' then
        malformed "label %s needs =\"value\" in %S" key line;
      let value, j = unescape ~close:'"' line (j + 2) in
      if j < n && line.[j] = ',' then go ((key, value) :: acc) (j + 1)
      else if j < n && line.[j] = '}' then
        (List.rev ((key, value) :: acc), j + 1)
      else malformed "expected ',' or '}' after label %s in %S" key line
    end
  in
  go [] i

let number_of_string what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> malformed "%s: %S is not a number" what s

(* Histogram counts travel as floats; a count is a non-negative integer
   a float holds exactly. *)
let count_of what v =
  if Float.is_integer v && v >= 0.0 && v <= 0x1p53 then int_of_float v
  else malformed "%s: %s is not a count" what (number v)

(* A histogram's series while its lines are read; the +Inf bucket and
   the _count line both give the count. *)
type part = {
  mutable buckets : (float * int) list;  (* finite [le] bound, cumulative *)
  mutable count : int;
  mutable sum : float;
}

(* One pass: the format puts a family's TYPE and HELP lines before its
   samples. *)
let parse text =
  let types = Hashtbl.create 16 and helps = Hashtbl.create 16 in
  let scalars = Hashtbl.create 64 and parts = Hashtbl.create 16 in
  (* A sample's family and series suffix, as the TYPE lines say; a
     sample no TYPE line claims is a gauge under its full name. *)
  let family name =
    let under (suffix, kind) =
      let n = String.length name - String.length suffix in
      if n > 0 && String.ends_with ~suffix name then
        let base = String.sub name 0 n in
        if Hashtbl.find_opt types base = Some kind then Some (base, suffix)
        else None
      else None
    in
    match Hashtbl.find_opt types name with
    | Some Gauge -> (name, "")
    | Some (Counter | Histogram) ->
        malformed "%s: sample name lacks its series suffix" name
    | None -> (
        match
          List.find_map under
            [
              ("_total", Counter); ("_bucket", Histogram);
              ("_count", Histogram); ("_sum", Histogram);
            ]
        with
        | Some f -> f
        | None -> (name, ""))
  in
  let part key =
    match Hashtbl.find_opt parts key with
    | Some p -> p
    | None ->
        let p = { buckets = []; count = 0; sum = 0.0 } in
        Hashtbl.add parts key p;
        p
  in
  let add_sample name labels v =
    let labels =
      List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    match family name with
    | base, "" -> Hashtbl.replace scalars (base, labels) (Metrics.Vgauge v)
    | base, "_total" ->
        Hashtbl.replace scalars (base, labels) (Metrics.Vcounter v)
    | base, "_bucket" -> (
        let le =
          match List.assoc_opt "le" labels with
          | Some le -> number_of_string (name ^ " le") le
          | None -> malformed "%s: bucket without an le label" name
        in
        let p = part (base, List.remove_assoc "le" labels) in
        let c = count_of name v in
        match le with
        | le when Float.is_nan le -> malformed "%s: le is NaN" name
        | le when le = Float.infinity -> p.count <- c
        | le -> p.buckets <- (le, c) :: p.buckets)
    | base, "_count" -> (part (base, labels)).count <- count_of name v
    | base, _ -> (part (base, labels)).sum <- v
  in
  let read_line line =
    let n = String.length line in
    if String.starts_with ~prefix:"# TYPE " line then begin
      let name, j = scan_name line 7 in
      Hashtbl.replace types name
        (match String.sub line j (n - j) with
        | " counter" -> Counter
        | " gauge" -> Gauge
        | " histogram" -> Histogram
        | kind -> malformed "%s: unsupported type %S" name (String.trim kind))
    end
    else if String.starts_with ~prefix:"# HELP " line then begin
      let name, j = scan_name line 7 in
      if j < n && line.[j] <> ' ' then malformed "malformed HELP line %S" line;
      Hashtbl.replace helps name
        (if j = n then "" else fst (unescape line (j + 1)))
    end
    else if n > 0 && line.[0] <> '#' then begin
      let name, j = scan_name line 0 in
      let labels, j =
        if j < n && line.[j] = '{' then scan_labels line (j + 1) else ([], j)
      in
      if j >= n || line.[j] <> ' ' then
        malformed "expected ' ' and a value after %s in %S" name line;
      add_sample name labels
        (number_of_string name (String.sub line (j + 1) (n - j - 1)))
    end
  in
  (* Everything up to "# EOF", which ends the text or its last line. *)
  let rec body = function
    | [ "# EOF" ] | [ "# EOF"; "" ] -> ()
    | "# EOF" :: _ -> malformed "content after # EOF"
    | [] -> malformed "missing # EOF terminator"
    | line :: rest ->
        read_line line;
        body rest
  in
  let sample (s_name, s_labels) s_value =
    let s_help = Option.value (Hashtbl.find_opt helps s_name) ~default:"" in
    { Metrics.s_name; s_help; s_labels; s_value }
  in
  match body (String.split_on_char '\n' text) with
  | exception Malformed msg -> Error msg
  | () ->
      let hists =
        Hashtbl.fold
          (fun key p acc ->
            sample key
              (Metrics.Vhist
                 (Histogram.of_cumulative ~buckets:p.buckets ~count:p.count
                    ~sum:p.sum))
            :: acc)
          parts []
      in
      let samples =
        Hashtbl.fold (fun key v acc -> sample key v :: acc) scalars hists
      in
      Ok
        {
          Metrics.taken_ns = Clock.now_ns ();
          samples =
            List.sort
              (fun a b ->
                compare (a.Metrics.s_name, a.Metrics.s_labels)
                  (b.Metrics.s_name, b.Metrics.s_labels))
              samples;
        }
