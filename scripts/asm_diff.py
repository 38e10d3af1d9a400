#!/usr/bin/env python3
"""List the functions whose machine code differs between two binaries.

Two builds of the same source can differ only in layout: every function
moves, so raw disassembly differs everywhere.  This script disassembles
both binaries with ``objdump -d --demangle``, splits the output per
function and masks what placement alone changes:

* instruction addresses and absolute call and jump targets (the target's
  symbol name is kept, its offset inside the target too);
* RIP-relative displacements and objdump's ``# <address> <symbol>``
  comments on them;
* the ``17h<16 hex digits>E`` hash of mangled Rust symbols and the
  ``::h<16 hex digits>`` hash of demangled ones.

It then prints the functions whose masked instructions differ, and those
present in only one binary.  Monomorphised copies that share a name after
masking are compared as a sorted multiset of bodies, so a copy that moved
in the symbol order is not a change.

Usage::

    scripts/asm_diff.py OLD_BINARY NEW_BINARY [--match REGEX]

``--match`` keeps only functions whose (masked) name matches ``REGEX``,
for example ``--match 'run_cycle|EventBus'``.  The exit status is 0
whether or not anything differs; 2 on a usage or objdump error.
"""

import argparse
import re
import subprocess
import sys
from collections import defaultdict

HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSTRUCTION = re.compile(r"^\s*[0-9a-f]+:\s*(.*)$")
MANGLED_HASH = re.compile(r"17h[0-9a-f]{16}E")
DEMANGLED_HASH = re.compile(r"::h[0-9a-f]{16}")
TARGET = re.compile(r"\b[0-9a-f]+ <")
RIP_DISPLACEMENT = re.compile(r"-?0x[0-9a-f]+\(%rip\)")
COMMENT = re.compile(r"\s*#.*$")


def mask_name(name):
    """The function name without its symbol hash."""
    return DEMANGLED_HASH.sub("::h*", MANGLED_HASH.sub("17h*E", name))


def mask_instruction(text):
    """The instruction text without anything placement decides."""
    text = COMMENT.sub("", text)
    text = RIP_DISPLACEMENT.sub("DISP(%rip)", text)
    text = TARGET.sub("ADDR <", text)
    return mask_name(" ".join(text.split()))


def functions(binary):
    """Maps each masked function name to the sorted list of its bodies."""
    try:
        listing = subprocess.run(
            ["objdump", "-d", "--demangle", "--no-show-raw-insn", binary],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"asm_diff: objdump failed on {binary}: {error}", file=sys.stderr)
        sys.exit(2)
    bodies = defaultdict(list)
    name, body = None, []
    for line in listing.splitlines():
        header = HEADER.match(line)
        if header:
            if name is not None:
                bodies[name].append(tuple(body))
            name, body = mask_name(header.group(1)), []
            continue
        instruction = INSTRUCTION.match(line)
        if name is not None and instruction and instruction.group(1):
            body.append(mask_instruction(instruction.group(1)))
    if name is not None:
        bodies[name].append(tuple(body))
    return {name: sorted(copies) for name, copies in bodies.items()}


def main():
    parser = argparse.ArgumentParser(
        description="List the functions whose machine code differs between two binaries."
    )
    parser.add_argument("old", help="the binary to compare against")
    parser.add_argument("new", help="the binary to compare")
    parser.add_argument("--match", help="keep only functions whose name matches this regex")
    args = parser.parse_args()
    keep = re.compile(args.match).search if args.match else (lambda _: True)

    old, new = functions(args.old), functions(args.new)
    names = sorted(name for name in old.keys() | new.keys() if keep(name))
    changed = [n for n in names if n in old and n in new and old[n] != new[n]]
    removed = [n for n in names if n not in new]
    added = [n for n in names if n not in old]
    same = len(names) - len(changed) - len(removed) - len(added)

    for title, listed in (("changed", changed), ("removed", removed), ("added", added)):
        print(f"{title} ({len(listed)}):")
        for name in listed:
            if title == "changed":
                sizes = (sum(map(len, old[name])), sum(map(len, new[name])))
                print(f"  {name}  [{sizes[0]} -> {sizes[1]} instructions]")
            else:
                print(f"  {name}")
    print(f"unchanged: {same}")


if __name__ == "__main__":
    main()
