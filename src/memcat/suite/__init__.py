"""Bundled litmus tests and cycle inputs."""

from pathlib import Path

from ..litmus import ProjectedTest, parse_litmus, project


_DIR = Path(__file__).resolve().parent


def suite_dir() -> Path:
    return _DIR


def names() -> list:
    return sorted(p.stem for p in suite_dir().glob("*.litmus"))


def source(name: str) -> str:
    return (suite_dir() / f"{name}.litmus").read_text()


def load(name: str) -> ProjectedTest:
    return project(parse_litmus(source(name)))


def thr_names() -> list:
    return sorted(p.stem for p in suite_dir().glob("*.thr"))


def thr_source(name: str) -> str:
    return (suite_dir() / f"{name}.thr").read_text()
