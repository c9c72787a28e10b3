"""Command line front end.

Every mutating subcommand builds a signed update locally from a secret key
file and submits it; the server never sees a private key. Query commands
can verify the served evidence on the client side with --verify.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from . import client as cl
from . import crypto
from . import records as rec
from . import server as srv
from . import service as svc
from .codec import UpdateMessage, Verdict, body_field
from .errors import OnhsError
from .handles import Handle, parse_handle, parse_handle_guess_root


def _split_hostport(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT")
    return (host or svc.DEFAULT_HOST, int(port))


def _endpoint(args) -> svc.RemoteEndpoint:
    host, port = args.server
    return svc.RemoteEndpoint(host, port)


def _print_verdict(verdict: Verdict, context: str) -> int:
    if verdict.accepted:
        print(f"accepted {context}")
        return 0
    detail = f" ({verdict.detail})" if verdict.detail else ""
    print(f"rejected {context}: {verdict.reason}{detail}", file=sys.stderr)
    return 1


def _handle_arg(text: str, root: Optional[str]) -> Handle:
    if root:
        return parse_handle(text, root)
    return parse_handle_guess_root(text)


# ---- subcommand bodies -------------------------------------------------------


def cmd_keygen(args) -> int:
    public, secret = crypto.generate_keypair(args.alg, bits=args.bits)
    crypto.save_secret_key(args.out, secret)
    print(f"algorithm {args.alg}")
    print(f"key-hash {public.key_hash_hex()}")
    print(f"saved {args.out}")
    return 0


def cmd_update(args) -> int:
    """Build the update args.build makes, submit it, print its verdict.

    args.context is the verdict line's text, formatted with the update's
    target as {name} and the subcommand's arguments by their names.
    """
    secret = crypto.load_secret_key(args.key)
    handle = _handle_arg(args.handle, args.root) if "handle" in args else None
    msg = args.build(args, secret, handle)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    code = _print_verdict(verdict, args.context.format(name=msg.target, **vars(args)))
    if code == 0 and args.command == "claim":
        print(f"handle {msg.target}")
    return code


def _dest(args, handle: Handle) -> Handle:
    """The handle a delegate or transfer points at, under handle's root."""
    return parse_handle(args.target, handle.root_suffix_no_dot())


def cmd_resolve(args) -> int:
    handle = _handle_arg(args.handle, args.root)
    root = handle.root_suffix_no_dot()
    with _endpoint(args) as ep:
        if args.verify:
            pinned = None
            if args.pin:
                pinned = cl.HandleReference.load(args.pin).pinned_key
            budget = srv.DEFAULT_DEPTH_BUDGET if args.depth_budget is None else args.depth_budget
            result = cl.resolve_and_verify(
                handle, [ep], root, pinned_key=pinned, depth_budget=budget
            )
            resolution = result.resolution
        else:
            resolution = ep.resolve(handle, args.depth_budget)
            result = None
    print(f"outcome {resolution.outcome}")
    if resolution.address is not None:
        print(f"address {resolution.address}")
    for notice in resolution.transfer_notices:
        record = notice.records[0]
        print(f"transferred {record.owner} -> {record.rdata}")
    if result is not None:
        print(f"verified {'yes' if result.verified else 'NO'}")
    # verified, only the warnings the verifier found itself
    for warning in (result or resolution).warnings:
        print(f"warning {warning}")
    if result is not None:
        for failure in result.failures:
            print(f"failure {failure}", file=sys.stderr)
        if not result.verified:
            return 1
    if resolution.outcome in (srv.OUTCOME_ADDRESS, srv.OUTCOME_TRANSFERRED_AND_ADDRESS):
        return 0
    return 1


def cmd_query(args) -> int:
    handle = _handle_arg(args.handle, args.root)
    with _endpoint(args) as ep:
        answer = ep.query_record(handle, args.rtype)
    if answer.found and answer.rrset is not None:
        for record in answer.rrset.records:
            print(f"{record.owner} {record.rtype} {record.canonical_rdata_text()}")
    else:
        print(f"no {args.rtype} record at {handle.fqdn_no_dot()}")
    for status_set in answer.status_records:
        record = status_set.records[0]
        print(f"status {record.owner} {record.rtype} {record.canonical_rdata_text()}")
    for proof in answer.proof:
        record = proof.records[0]
        print(f"proof {record.owner} NXT {record.canonical_rdata_text()}")
    return 0 if answer.found else 1


def _audit_item(item: object, where: str) -> Tuple[UpdateMessage, Verdict]:
    """The update and verdict of one backlog item or audit event."""
    return (
        UpdateMessage.from_dict(body_field(item, "update", dict, where)),
        Verdict.from_dict(body_field(item, "verdict", dict, where)),
    )


def cmd_audit(args) -> int:
    handle = _handle_arg(args.handle, args.root)
    with _endpoint(args) as ep:
        verdict, backlog = ep.subscribe_audit(handle, owner=args.owner)
        if not verdict.accepted:
            return _print_verdict(verdict, f"audit subscription for {handle.fqdn_no_dot()}")
        for item in backlog:
            update, logged = _audit_item(item, "audit backlog item")
            print(f"past {update.action} {update.target} serial={update.serial} {logged.tag()}")
        if not args.follow:
            return 0
        print("following; interrupt to stop", file=sys.stderr)
        try:
            while True:
                event = ep.read_event(timeout=3600.0)
                if event is None:
                    continue
                update, logged = _audit_item(event, "audit event")
                seq = body_field(event, "seq", int, "audit event")
                stamp = body_field(event, "stamp", str, "audit event")
                print(
                    f"event seq={seq} {update.action} {update.target} "
                    f"serial={update.serial} {logged.tag()} at {stamp}"
                )
        except KeyboardInterrupt:
            return 0


def cmd_serve(args) -> int:
    config = svc.ServerConfig.load(args.config)
    service = svc.HandleService(config)
    tcp = svc.TcpHandleServer(service)
    port = tcp.start()
    if service.log.dropped_tail:
        print(
            f"dropped a torn last line ({service.log.dropped_tail} bytes) from the update log",
            flush=True,
        )
    if service.replayed:
        print(f"replayed {service.replayed} logged updates", flush=True)
    print(f"serving {config.root_zone} on {config.listen_host}:{port}", flush=True)
    tcp.serve_forever()
    return 0


def _read_only_service(args) -> svc.HandleService:
    """The store of args.config's data directory, replayed without touching
    its log; a torn last line is left out and reported."""
    service = svc.HandleService(svc.ServerConfig.load(args.config), read_only=True)
    if service.log.dropped_tail:
        print(
            f"skipped a torn last line ({service.log.dropped_tail} bytes) of the update log,"
            " which is left as it is",
            file=sys.stderr,
        )
    return service


def cmd_zone_dump(args) -> int:
    service = _read_only_service(args)
    try:
        if args.owner:
            apex = parse_handle(args.owner, service.config.root_zone)
            zone = service.server.owner_zone_snapshot(apex)
        else:
            zone = service.server.root_zone_snapshot()
        text = rec.serialize_zone(zone)
        if args.out:
            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    finally:
        service.close()


def cmd_zone_load(args) -> int:
    service = _read_only_service(args)
    try:
        text = Path(args.file).read_text()
        zone = rec.parse_zone(text)
        loaded, problems = service.server.load_zone(zone)
        for problem in problems:
            print(f"skipped {problem}", file=sys.stderr)
        print(f"checked {args.file}: {loaded} record sets verify; nothing was stored")
        return 0 if not problems else 1
    finally:
        service.close()


# ---- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onhs",
        description="Self-assigned cryptographic handles: server, resolver, tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, key=True):
        p.add_argument(
            "--server",
            type=_split_hostport,
            default=(svc.DEFAULT_HOST, svc.DEFAULT_PORT),
            help="server address as HOST:PORT",
        )
        p.add_argument("--root", help="root zone (inferred from the name if omitted)")
        if key:
            p.add_argument("--key", required=True, help="secret key file")
            p.add_argument("--serial", type=int, default=None)
            p.add_argument("--ttl", type=int, default=rec.DEFAULT_TTL)

    p = sub.add_parser("keygen", help="generate a keypair file")
    p.add_argument("--alg", type=int, default=crypto.DEFAULT_ALGORITHM,
                   choices=sorted(crypto.ALGORITHMS))
    p.add_argument("--bits", type=int, default=crypto.DEFAULT_RSA_BITS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    def add_update(name, summary, context, build, *positionals):
        p = sub.add_parser(name, help=summary)
        add_common(p)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=cmd_update, build=build, context=context)
        return p

    p = add_update(
        "claim", "claim the apex handle for a key", "claim of {name}",
        lambda a, key, _: srv.make_claim(key, a.root, a.suffix_len, a.serial, ttl=a.ttl),
    )
    p.add_argument("--suffix-len", type=int, default=16,
                   help="hex digits of the key hash to embed in the label")
    add_update(
        "create", "create a child handle", "create of {name}",
        lambda a, key, h: srv.make_create_child(key, h, a.serial, ttl=a.ttl), "handle",
    )
    add_update(
        "assign", "bind a network address to a handle", "assign {name} -> {address}",
        lambda a, key, h: srv.make_assign(key, h, a.address, a.serial, ttl=a.ttl),
        "handle", "address",
    )
    add_update(
        "delegate", "point a handle at another handle", "delegate {name} -> {target}",
        lambda a, key, h: srv.make_delegate(key, h, _dest(a, h), a.serial, ttl=a.ttl),
        "handle", "target",
    )
    add_update(
        "transfer", "irrevocably hand a handle to another key", "transfer {name} -> {target}",
        lambda a, key, h: srv.make_transfer(key, h, _dest(a, h), a.serial, ttl=a.ttl),
        "handle", "target",
    )
    add_update(
        "cancel", "irrevocably cancel a handle", "cancel of {name}",
        lambda a, key, h: srv.make_cancel(key, h, a.serial, ttl=a.ttl), "handle",
    )
    p = add_update(
        "compromise", "mark a key compromised as of a date", "compromise notice for {name}",
        lambda a, key, h: srv.make_compromise(key, h, a.note, a.serial, ttl=a.ttl), "handle",
    )
    p.add_argument("--note", required=True, help="date as YYYY-MM-DD or DD/MM/YYYY")

    p = sub.add_parser("resolve", help="resolve a handle to an address")
    add_common(p, key=False)
    p.add_argument("handle")
    p.add_argument("--verify", action="store_true",
                   help="re-check the evidence chain client side")
    p.add_argument("--pin", help="reference file whose pinned key must match")
    p.add_argument("--depth-budget", type=int, default=None)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("query", help="fetch one record set as served, unverified")
    add_common(p, key=False)
    p.add_argument("handle")
    p.add_argument("rtype", choices=list(rec.RRTYPES))
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("audit", help="subscribe to a handle's update stream")
    add_common(p, key=False)
    p.add_argument("handle")
    p.add_argument("--follow", action="store_true")
    p.add_argument("--owner", action="store_true",
                   help="request the owner slot (not subject to the cap)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="run a handle server")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("zone", help="dump or load zone text")
    zone_sub = p.add_subparsers(dest="zone_command", required=True)
    pz = zone_sub.add_parser("dump")
    pz.add_argument("--config", required=True)
    pz.add_argument("--owner", help="dump this apex's zone instead of the root")
    pz.add_argument("--out")
    pz.set_defaults(func=cmd_zone_dump)
    pz = zone_sub.add_parser(
        "load", help="verify zone text against a server's data dir; stores nothing"
    )
    pz.add_argument("file")
    pz.add_argument("--config", required=True)
    pz.set_defaults(func=cmd_zone_load)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "serial", None) is None and hasattr(args, "serial"):
        args.serial = int(time.time())
    if args.command == "claim" and not args.root:
        parser.error("claim requires --root")
    try:
        return args.func(args)
    # a ValueError is a reply whose fields do not read (codec.body_field)
    except (OnhsError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
