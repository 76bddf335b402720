"""The repro-specific static lint pass: rules, escape hatch, JSON mode."""

import json

from repro.analysis.lint import Finding, lint_paths, lint_source, main

# Fake paths: model rules (PX1xx/2xx/3xx/8xx/9xx) apply only inside a
# "repro" package directory; generic rules (PX5xx/6xx) apply everywhere.
IN_REPRO = "src/repro/fake_module.py"
OUTSIDE = "scripts/fake_script.py"


def codes(findings):
    return [f.code for f in findings]


# PX000 ----------------------------------------------------------------------
def test_syntax_error_reported_as_px000():
    found = lint_source("def broken(:\n", IN_REPRO)
    assert codes(found) == ["PX000"]


# PX101 ----------------------------------------------------------------------
def test_wall_clock_flagged_inside_repro():
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert "PX101" in codes(lint_source(src, IN_REPRO))


def test_sleep_and_datetime_now_flagged():
    src = (
        "import time\nimport datetime\n\n"
        "def f():\n"
        "    time.sleep(1)\n"
        "    return datetime.datetime.now()\n"
    )
    assert codes(lint_source(src, IN_REPRO)).count("PX101") == 2


def test_wall_clock_not_flagged_outside_repro():
    src = "import time\n\ndef f():\n    return time.perf_counter()\n"
    assert "PX101" not in codes(lint_source(src, OUTSIDE))


# PX102 ----------------------------------------------------------------------
def test_unseeded_random_flagged():
    src = "import random\n\ndef f():\n    return random.random()\n"
    assert "PX102" in codes(lint_source(src, IN_REPRO))


def test_seeded_random_instance_allowed():
    src = "import random\n\ndef f():\n    return random.Random(42).random()\n"
    assert "PX102" not in codes(lint_source(src, IN_REPRO))


def test_unseeded_random_instance_flagged():
    src = "import random\n\ndef f():\n    return random.Random()\n"
    assert "PX102" in codes(lint_source(src, IN_REPRO))


# PX201 ----------------------------------------------------------------------
def test_threading_import_flagged():
    assert "PX201" in codes(lint_source("import threading\n", IN_REPRO))


def test_concurrent_futures_from_import_flagged():
    src = "from concurrent.futures import ThreadPoolExecutor as TPE\n"
    found = lint_source(src, IN_REPRO)
    assert "PX201" in codes(found)


def test_os_concurrency_not_flagged_outside_repro():
    src = "import threading\nfrom concurrent.futures import Future\n"
    assert "PX201" not in codes(lint_source(src, OUTSIDE))


# PX301 ----------------------------------------------------------------------
def test_blocking_get_in_component_action_flagged():
    src = (
        "from repro.runtime.agas.component import Component\n\n"
        "class Thing(Component):\n"
        "    def handler(self, fut):\n"
        "        return fut.get()\n"
    )
    assert "PX301" in codes(lint_source(src, IN_REPRO))


def test_private_methods_and_plain_classes_not_flagged():
    src = (
        "from repro.runtime.agas.component import Component\n\n"
        "class Thing(Component):\n"
        "    def _helper(self, fut):\n"
        "        return fut.get()\n\n"
        "class NotAComponent:\n"
        "    def handler(self, fut):\n"
        "        return fut.get()\n"
    )
    assert "PX301" not in codes(lint_source(src, IN_REPRO))


def test_get_with_timeout_not_flagged():
    src = (
        "from repro.runtime.agas.component import Component\n\n"
        "class Thing(Component):\n"
        "    def handler(self, fut):\n"
        "        return fut.get(timeout=1.0)\n"
    )
    assert "PX301" not in codes(lint_source(src, IN_REPRO))


# PX501 ----------------------------------------------------------------------
def test_mutable_default_flagged():
    src = "def f(items=[]):\n    return items\n"
    assert "PX501" in codes(lint_source(src, OUTSIDE))


def test_mutable_default_call_flagged():
    src = "def f(table=dict()):\n    return table\n"
    assert "PX501" in codes(lint_source(src, OUTSIDE))


def test_none_default_allowed():
    src = "def f(items=None):\n    return items or []\n"
    assert "PX501" not in codes(lint_source(src, OUTSIDE))


# PX601 ----------------------------------------------------------------------
def test_unused_import_flagged():
    src = "import os\n\nprint('no os here')\n"
    assert "PX601" in codes(lint_source(src, OUTSIDE))


def test_used_import_and_all_export_not_flagged():
    used = "import os\n\nprint(os.sep)\n"
    assert "PX601" not in codes(lint_source(used, OUTSIDE))
    exported = "import os\n\n__all__ = ['os']\n"
    assert "PX601" not in codes(lint_source(exported, OUTSIDE))


def test_unused_import_honours_ruff_f401_noqa():
    for comment in ("# noqa: F401 - side effect", "# noqa: E402, F401", "# noqa"):
        src = f"import os  {comment}\n"
        assert "PX601" not in codes(lint_source(src, OUTSIDE)), comment
    other_code = "import os  # noqa: E402\n"
    assert "PX601" in codes(lint_source(other_code, OUTSIDE))


# Escape hatch ---------------------------------------------------------------
def test_line_disable_suppresses_only_that_line():
    src = (
        "import time\n\n"
        "def f():\n"
        "    a = time.sleep(1)  # repro-lint: disable=PX101\n"
        "    return time.sleep(2)\n"
    )
    found = lint_source(src, IN_REPRO)
    assert codes(found).count("PX101") == 1
    assert found[0].line == 5


def test_file_disable_suppresses_everywhere():
    src = (
        "# repro-lint: disable-file=PX101\n"
        "import time\n\n"
        "def f():\n"
        "    return time.sleep(1)\n"
    )
    assert "PX101" not in codes(lint_source(src, IN_REPRO))


def test_disable_all_suppresses_every_code():
    src = "def f(items=[]):  # repro-lint: disable=all\n    return items\n"
    assert lint_source(src, OUTSIDE) == []


# Entry point ----------------------------------------------------------------
def test_main_reports_findings_and_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "PX501" in out and "1 finding(s)" in out


def test_main_json_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    return x\n")
    assert main([str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "PX501"
    assert payload[0]["line"] == 1


def test_main_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f(x=None):\n    return x\n")
    assert main([str(good)]) == 0
    assert capsys.readouterr().out == ""


def test_repo_source_tree_is_lint_clean():
    """The trees CI's ruff step checks: ``python -m repro.analysis.lint
    src tests examples``."""
    assert lint_paths(["src", "tests", "examples"]) == []


def test_finding_render_format():
    finding = Finding(path="a.py", line=3, col=7, code="PX101", message="m")
    assert finding.render() == "a.py:3:7: PX101 m"


# PX801 ----------------------------------------------------------------------
def test_iterating_set_attribute_in_handler_flagged():
    src = (
        "class C(Component):\n"
        "    def __init__(self):\n"
        "        self.gids = set()\n"
        "    def broadcast(self):\n"
        "        for gid in self.gids:\n"
        "            send(gid)\n"
    )
    assert "PX801" in codes(lint_source(src, IN_REPRO))


def test_iterating_handler_populated_dict_flagged():
    src = (
        "class C(Component):\n"
        "    def __init__(self):\n"
        "        self.parts = {}\n"
        "    def register(self, gid, home):\n"
        "        self.parts[gid] = home\n"
        "    def sweep(self):\n"
        "        return [go(g) for g in self.parts]\n"
    )
    assert "PX801" in codes(lint_source(src, IN_REPRO))


def test_sorted_iteration_not_flagged():
    src = (
        "class C(Component):\n"
        "    def __init__(self):\n"
        "        self.gids = set()\n"
        "    def broadcast(self):\n"
        "        for gid in sorted(self.gids):\n"
        "            send(gid)\n"
    )
    assert "PX801" not in codes(lint_source(src, IN_REPRO))


def test_private_method_iteration_not_flagged():
    src = (
        "class C(Component):\n"
        "    def __init__(self):\n"
        "        self.gids = set()\n"
        "    def _internal(self):\n"
        "        for gid in self.gids:\n"
        "            send(gid)\n"
    )
    assert "PX801" not in codes(lint_source(src, IN_REPRO))


# PX901 ----------------------------------------------------------------------
IN_SERVICE = "src/repro/service/fake_service.py"

_TRY_BARE = "def f():\n    try:\n        work()\n    except:\n        pass\n"
_TRY_SWALLOW = (
    "def f():\n    try:\n        work()\n    except Exception:\n        pass\n"
)


def test_px901_bare_except_in_service_file():
    found = lint_source(_TRY_BARE, IN_SERVICE)
    assert "PX901" in codes(found)
    assert "SystemExit" in found[0].message


def test_px901_swallowed_broad_except_in_service_file():
    assert "PX901" in codes(lint_source(_TRY_SWALLOW, IN_SERVICE))
    swallowed_return = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except BaseException:\n"
        "        return None\n"
    )
    assert "PX901" in codes(lint_source(swallowed_return, IN_SERVICE))
    in_tuple = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except (ValueError, Exception):\n"
        "        ...\n"
    )
    assert "PX901" in codes(lint_source(in_tuple, IN_SERVICE))


def test_px901_handled_or_narrow_excepts_are_fine():
    narrow = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except OSError:\n"
        "        pass\n"
    )
    assert "PX901" not in codes(lint_source(narrow, IN_SERVICE))
    reported = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception as exc:\n"
        "        log(exc)\n"
    )
    assert "PX901" not in codes(lint_source(reported, IN_SERVICE))
    reraised = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:\n"
        "        raise\n"
    )
    assert "PX901" not in codes(lint_source(reraised, IN_SERVICE))


def test_px901_applies_inside_component_action_handlers():
    src = (
        "class Thing(Component):\n"
        "    def act(self):\n"
        "        try:\n"
        "            work()\n"
        "        except Exception:\n"
        "            pass\n"
    )
    assert "PX901" in codes(lint_source(src, IN_REPRO))


def test_px901_skips_private_methods_and_plain_repro_code():
    private = (
        "class Thing(Component):\n"
        "    def _cleanup(self):\n"
        "        try:\n"
        "            work()\n"
        "        except Exception:\n"
        "            pass\n"
    )
    assert "PX901" not in codes(lint_source(private, IN_REPRO))
    assert "PX901" not in codes(lint_source(_TRY_SWALLOW, IN_REPRO))
    assert "PX901" not in codes(lint_source(_TRY_SWALLOW, OUTSIDE))


def test_px901_suppressible_inline():
    src = (
        "def f():\n"
        "    try:\n"
        "        work()\n"
        "    except Exception:  # repro-lint: disable=PX901\n"
        "        pass\n"
    )
    assert "PX901" not in codes(lint_source(src, IN_SERVICE))
