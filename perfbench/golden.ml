(* Golden answers: the response line the program gave, at the commit
   that defined this benchmark, to every fixed query the benchmark
   sends.  A served answer is checked against it byte for byte, so a
   solver that goes wrong fails the run even when every code path that
   could answer the query goes wrong the same way.

   perfbench/golden.tsv holds one "<request line>\t<response line>" per
   query; request and response are JSON lines, which never hold a raw
   tab.  Regenerate it with `main.exe --print-golden`. *)

let path = Filename.concat "perfbench" "golden.tsv"

type t = (string, string) Hashtbl.t

let load () : t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | Some i ->
          Hashtbl.replace table (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | None -> if line <> "" then failwith ("perfbench: malformed " ^ path))
    (String.split_on_char '\n' (Common.read_file path));
  table

(* Whether [response] is the golden answer to [request]; [Error] when
   the request has none. *)
let matches (t : t) ~request ~response =
  match Hashtbl.find_opt t request with
  | Some expected -> Ok (String.equal expected response)
  | None -> Error ("no golden answer for " ^ request)

let check ctx t ~request ~response =
  match matches t ~request ~response with
  | Ok ok -> Common.check ctx ok ("answer differs from the golden one: " ^ request)
  | Error e -> Common.check ctx false e

(* The golden lines for [requests], answered by [Engine.eval]. *)
let print requests =
  List.iter
    (fun request ->
      match Po_serve.Request.of_line request with
      | Ok r ->
          Printf.printf "%s\t%s\n%!" request
            (Po_serve.Request.response_line
               (Po_serve.Engine.eval r.Po_serve.Request.query))
      | Error e -> failwith ("perfbench: " ^ e.Po_serve.Request.message))
    requests
