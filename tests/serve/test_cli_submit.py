"""The ``serve``/``submit`` CLI verbs against an in-process daemon."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.serve import ERServer
from repro.serve.protocol import ENV_SERVE_TOKEN

TOKEN = "cli-submit-token"


@pytest.fixture(scope="module")
def server():
    with ERServer(num_workers=2, token=TOKEN) as daemon:
        yield daemon


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "in.csv"
    assert main(["generate", "--kind", "products", "--num", "300",
                 "--seed", "7", "--output", str(data)]) == 0
    return data


class TestSubmit:
    def test_submit_output_is_byte_identical_to_local_dedup(
        self, server, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(ENV_SERVE_TOKEN, TOKEN)
        host, port = server.address
        local_out = tmp_path / "local.csv"
        remote_out = tmp_path / "remote.csv"
        assert main(["dedup", "--input", str(dataset),
                     "--output", str(local_out)]) == 0
        assert main(["submit", "--server", f"{host}:{port}",
                     "--input", str(dataset),
                     "--output", str(remote_out)]) == 0
        captured = capsys.readouterr()
        # Same strategy, same m/r defaults, same streaming sink: the
        # served run must reproduce the local file byte for byte.
        assert remote_out.read_text() == local_out.read_text()
        assert f"served by {host}:{port}" in captured.out

    def test_progress_narrates_on_stderr(
        self, server, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(ENV_SERVE_TOKEN, TOKEN)
        host, port = server.address
        assert main(["submit", "--server", f"{host}:{port}",
                     "--input", str(dataset),
                     "--output", str(tmp_path / "m.csv"),
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[matching]" in captured.err and "reduce task" in captured.err

    def test_token_flag_overrides_environment(
        self, server, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(ENV_SERVE_TOKEN, raising=False)
        host, port = server.address
        assert main(["submit", "--server", f"{host}:{port}",
                     "--token", TOKEN,
                     "--input", str(dataset),
                     "--output", str(tmp_path / "m.csv")]) == 0
        capsys.readouterr()

    def test_malformed_server_address_is_a_clean_error(
        self, dataset, tmp_path, capsys
    ):
        code = main(["submit", "--server", "nonsense",
                     "--input", str(dataset),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_missing_token_is_a_clean_error(
        self, server, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv(ENV_SERVE_TOKEN, raising=False)
        host, port = server.address
        code = main(["submit", "--server", f"{host}:{port}",
                     "--input", str(dataset),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "token" in capsys.readouterr().err

    def test_wrong_token_is_a_clean_error(
        self, server, dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(ENV_SERVE_TOKEN, "definitely-wrong")
        host, port = server.address
        code = main(["submit", "--server", f"{host}:{port}",
                     "--input", str(dataset),
                     "--output", str(tmp_path / "m.csv")])
        assert code == 2
        assert "handshake" in capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_task_timeout_is_rejected(self, value, capsys):
        from repro.serve.__main__ import main as serve_main

        with pytest.raises(SystemExit) as info:
            serve_main(["--task-timeout", value])
        assert info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_server_rejects_non_positive_task_timeout(self):
        with pytest.raises(ValueError, match="task_timeout"):
            ERServer(task_timeout=-5)
