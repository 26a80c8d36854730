"""Check out another revision of this repository beside the working tree,
for the tools that compare the two: `clone_rev(rev, dst)`."""

import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def clone_rev(rev, dst):
    """Clone this repository into dst with a local `git clone` (nothing is
    fetched), check out rev there, and return rev's short hash."""
    short = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                           capture_output=True, text=True, check=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", ROOT, dst], check=True)
    subprocess.run(["git", "-C", dst, "checkout", "--quiet", short], check=True)
    return short
