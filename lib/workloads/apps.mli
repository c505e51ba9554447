(** The nine data-center application models of the paper's evaluation.

    Three HHVM web applications (drupal, mediawiki, wordpress: JIT-heavy,
    sizeable kernel component), three DaCapo server applications
    (cassandra, kafka, tomcat), two Renaissance/Finagle services
    (finagle-chirper, finagle-http) and verilator (generated,
    nearly-straight-line hardware-simulation code swept cyclically).
    Parameter rationales are in each definition; DESIGN.md explains the
    substitution of synthetic models for the real binaries. *)

val cassandra : App_model.t
val drupal : App_model.t
val finagle_http : App_model.t
val kafka : App_model.t
val tomcat : App_model.t
val verilator : App_model.t
val wordpress : App_model.t

val all : App_model.t list
(** All nine, in the paper's (alphabetical) figure order; the models no
    caller names directly (finagle-chirper, mediawiki) are reached
    through [all] and {!by_name}. *)

val by_name : string -> App_model.t option
