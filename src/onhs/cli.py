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
from typing import List, Optional

from . import client as cl
from . import crypto
from . import records as rec
from . import server as srv
from . import service as svc
from .errors import OnhsError
from .handles import Handle, parse_handle, parse_handle_guess_root


def _split_hostport(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT")
    return (host or "127.0.0.1", int(port))


def _endpoint(args) -> svc.RemoteEndpoint:
    host, port = args.server
    return svc.RemoteEndpoint(host, port)


def _default_serial() -> int:
    return int(time.time())


def _load_secret(path: str) -> crypto.SecretKey:
    return crypto.load_secret_key(path)


def _print_verdict(verdict: srv.Verdict, context: str) -> int:
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


def cmd_claim(args) -> int:
    secret = _load_secret(args.key)
    msg = srv.make_claim(
        secret, args.root, args.suffix_len, args.serial, ttl=args.ttl
    )
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    code = _print_verdict(verdict, f"claim of {msg.target}")
    if code == 0:
        print(f"handle {msg.target}")
    return code


def cmd_create(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    msg = srv.make_create_child(secret, handle, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"create of {msg.target}")


def cmd_assign(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    msg = srv.make_assign(secret, handle, args.address, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"assign {msg.target} -> {args.address}")


def cmd_delegate(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    target = parse_handle(args.target, handle.root_suffix_no_dot())
    msg = srv.make_delegate(secret, handle, target, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"delegate {msg.target} -> {args.target}")


def cmd_transfer(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    target = parse_handle(args.target, handle.root_suffix_no_dot())
    msg = srv.make_transfer(secret, handle, target, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"transfer {msg.target} -> {args.target}")


def cmd_cancel(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    msg = srv.make_cancel(secret, handle, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"cancel of {msg.target}")


def cmd_compromise(args) -> int:
    secret = _load_secret(args.key)
    handle = _handle_arg(args.handle, args.root)
    msg = srv.make_compromise(secret, handle, args.note, args.serial, ttl=args.ttl)
    with _endpoint(args) as ep:
        verdict = ep.apply_update(msg)
    return _print_verdict(verdict, f"compromise notice for {msg.target}")


def cmd_resolve(args) -> int:
    handle = _handle_arg(args.handle, args.root)
    root = handle.root_suffix_no_dot()
    with _endpoint(args) as ep:
        if args.verify:
            pinned = None
            if args.pin:
                pinned = cl.HandleReference.load(args.pin).pinned_key
            result = cl.resolve_and_verify(
                handle, [ep], root, pinned_key=pinned, depth_budget=args.depth_budget
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
    for warning in resolution.warnings:
        print(f"warning {warning}")
    if result is not None:
        print(f"verified {'yes' if result.verified else 'NO'}")
        for warning in result.warnings:
            if warning not in resolution.warnings:
                print(f"warning {warning}")
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


def cmd_audit(args) -> int:
    handle = _handle_arg(args.handle, args.root)
    with _endpoint(args) as ep:
        verdict, backlog = ep.subscribe_audit(handle, owner=args.owner)
        if not verdict.accepted:
            return _print_verdict(verdict, f"audit subscription for {handle.fqdn_no_dot()}")
        for item in backlog:
            update = item["update"]
            tag = "accepted" if item["verdict"]["accepted"] else (
                f"rejected:{item['verdict']['reason']}"
            )
            print(f"past {update['action']} {update['target']} serial={update['serial']} {tag}")
        if not args.follow:
            return 0
        print("following; interrupt to stop", file=sys.stderr)
        try:
            while True:
                event = ep.read_event(timeout=3600.0)
                if event is None:
                    continue
                update = event["update"]
                verdict_info = event["verdict"]
                tag = "accepted" if verdict_info["accepted"] else (
                    f"rejected:{verdict_info['reason']}"
                )
                print(
                    f"event seq={event['seq']} {update['action']} {update['target']} "
                    f"serial={update['serial']} {tag} at {event['stamp']}"
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


def cmd_zone_dump(args) -> int:
    config = svc.ServerConfig.load(args.config)
    service = svc.HandleService(config)
    try:
        if args.owner:
            apex = parse_handle(args.owner, config.root_zone)
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
    config = svc.ServerConfig.load(args.config)
    service = svc.HandleService(config)
    try:
        text = Path(args.file).read_text()
        zone = rec.parse_zone(text)
        loaded, problems = service.server.load_zone(zone)
        for problem in problems:
            print(f"skipped {problem}", file=sys.stderr)
        print(f"loaded {loaded} record sets from {args.file}")
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
            default=("127.0.0.1", svc.DEFAULT_PORT),
            help="server address as HOST:PORT",
        )
        p.add_argument("--root", help="root zone (inferred from the name if omitted)")
        if key:
            p.add_argument("--key", required=True, help="secret key file")
            p.add_argument("--serial", type=int, default=None)
            p.add_argument("--ttl", type=int, default=rec.DEFAULT_TTL)

    p = sub.add_parser("keygen", help="generate a keypair file")
    p.add_argument("--alg", type=int, default=crypto.RSA_SHA1,
                   choices=sorted(crypto.ALGORITHMS))
    p.add_argument("--bits", type=int, default=2048)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("claim", help="claim the apex handle for a key")
    add_common(p)
    p.add_argument("--suffix-len", type=int, default=16,
                   help="hex digits of the key hash to embed in the label")
    p.set_defaults(func=cmd_claim)

    p = sub.add_parser("create", help="create a child handle")
    add_common(p)
    p.add_argument("handle")
    p.set_defaults(func=cmd_create)

    p = sub.add_parser("assign", help="bind a network address to a handle")
    add_common(p)
    p.add_argument("handle")
    p.add_argument("address")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("delegate", help="point a handle at another handle")
    add_common(p)
    p.add_argument("handle")
    p.add_argument("target")
    p.set_defaults(func=cmd_delegate)

    p = sub.add_parser("transfer", help="irrevocably hand a handle to another key")
    add_common(p)
    p.add_argument("handle")
    p.add_argument("target")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("cancel", help="irrevocably cancel a handle")
    add_common(p)
    p.add_argument("handle")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("compromise", help="mark a key compromised as of a date")
    add_common(p)
    p.add_argument("handle")
    p.add_argument("--note", required=True, help="date as YYYY-MM-DD or DD/MM/YYYY")
    p.set_defaults(func=cmd_compromise)

    p = sub.add_parser("resolve", help="resolve a handle to an address")
    add_common(p, key=False)
    p.add_argument("handle")
    p.add_argument("--verify", action="store_true",
                   help="re-check the evidence chain client side")
    p.add_argument("--pin", help="reference file whose pinned key must match")
    p.add_argument("--depth-budget", type=int, default=None)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("query", help="fetch one record set")
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
    pz = zone_sub.add_parser("load")
    pz.add_argument("file")
    pz.add_argument("--config", required=True)
    pz.set_defaults(func=cmd_zone_load)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "serial", None) is None and hasattr(args, "serial"):
        args.serial = _default_serial()
    if args.command == "claim" and not args.root:
        parser.error("claim requires --root")
    try:
        return args.func(args)
    except OnhsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
