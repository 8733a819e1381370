"""Tests for the declarative host inventory (``repro.fleet.inventory``)."""

import json
import sys

import pytest

from repro.fleet import (
    INVENTORY_VERSION,
    HostSpec,
    inventory_to_document,
    load_inventory,
    local_inventory,
    parse_inventory,
)


class TestHostSpec:
    def test_default_command_is_the_local_host_process(self):
        argv = HostSpec(name="a").command_argv()
        assert argv == [sys.executable, "-m", "repro.exec.worker", "--serve"]

    def test_python_field_overrides_the_interpreter(self):
        argv = HostSpec(name="a", python="/opt/py/bin/python").command_argv()
        assert argv[0] == "/opt/py/bin/python"

    def test_ssh_template_expands_placeholders(self):
        host = HostSpec(
            name="node42", command="ssh {host} {python} -m repro.exec.worker --serve"
        )
        argv = host.command_argv()
        assert argv[0] == "ssh"
        assert argv[1] == "node42"
        assert argv[2] == sys.executable
        assert argv[-1] == "--serve"

    def test_unknown_placeholder_is_rejected_with_the_known_set(self):
        host = HostSpec(name="a", command="ssh {node} python")
        with pytest.raises(ValueError, match=r"\{python\}.*\{host\}"):
            host.command_argv()

    def test_names_must_be_filesystem_safe(self):
        for bad in ("", "a/b", "a b", "a:b", ".."+ "/x"):
            with pytest.raises(ValueError, match="host name"):
                HostSpec(name=bad)
        # The dotted/dashed forms real hostnames take are fine.
        HostSpec(name="node-3.rack_7")

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            HostSpec(name="a", workers=0)

    def test_env_overlay_and_normalisation(self):
        host = HostSpec(name="a", env={"B": "2", "A": "1"})
        assert host.env == (("A", "1"), ("B", "2"))
        merged = host.environment({"A": "0", "C": "3"})
        assert merged == {"A": "1", "B": "2", "C": "3"}
        with pytest.raises(TypeError, match="str"):
            HostSpec(name="a", env={"A": 1})

    def test_document_round_trip(self):
        host = HostSpec(
            name="n1",
            command="ssh {host} {python} -m repro.exec.worker",
            workers=4,
            env={"X": "1"},
            python="/usr/bin/python3",
        )
        assert HostSpec.from_document(host.to_document()) == host
        # Defaults stay out of the document (the file format stays terse).
        assert HostSpec(name="n2").to_document() == {"name": "n2", "workers": 1}


class TestInventory:
    def test_local_inventory_names_and_workers(self):
        hosts = local_inventory(3, workers=2)
        assert [host.name for host in hosts] == ["host-0", "host-1", "host-2"]
        assert all(host.workers == 2 for host in hosts)
        assert all(host.command is None for host in hosts)
        with pytest.raises(ValueError, match="at least one host"):
            local_inventory(0)

    def test_document_round_trip(self):
        hosts = local_inventory(2)
        document = inventory_to_document(hosts)
        assert document["version"] == INVENTORY_VERSION
        assert parse_inventory(document) == hosts

    def test_version_mismatch_and_empty_inventory_are_rejected(self):
        with pytest.raises(ValueError, match="version"):
            parse_inventory({"version": 99, "hosts": [{"name": "a"}]})
        with pytest.raises(ValueError, match="no host list"):
            parse_inventory({"version": INVENTORY_VERSION, "hosts": []})

    def test_duplicate_names_are_rejected(self):
        document = {
            "version": INVENTORY_VERSION,
            "hosts": [{"name": "a"}, {"name": "b"}, {"name": "a"}],
        }
        with pytest.raises(ValueError, match="duplicated: a"):
            parse_inventory(document)

    def test_load_inventory_reads_json_files(self, tmp_path):
        hosts = (
            HostSpec(name="n1", command="ssh n1 {python} -m repro.exec.worker --serve"),
            HostSpec(name="n2", workers=8),
        )
        path = tmp_path / "hosts.json"
        path.write_text(json.dumps(inventory_to_document(hosts)))
        assert load_inventory(path) == hosts
