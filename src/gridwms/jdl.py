"""Validation and normalization of job and DAG descriptions.

This is the protocol-checking layer: raw ads come in, normalized typed
descriptions with defaults applied come out.  All violations are reported
at once rather than stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import classad
from .classad import ClassAd, Expr, ListValue, SubAd, Text, attr_value
from .errors import WmsError

DEFAULT_RANK = "other.FreeCPUs"
DEFAULT_REQUIREMENTS = 'other.Status == "Production"'

JOB_TYPES = ("Normal", "Interactive", "Checkpointable", "Partitionable")

KNOWN_ATTRIBUTES = {
    "type",
    "jobtype",
    "executable",
    "arguments",
    "stdinput",
    "stdoutput",
    "stderror",
    "inputsandbox",
    "outputsandbox",
    "requirements",
    "rank",
    "retrycount",
    "jobsteps",
    "subjobs",
    "usertags",
    "listenerhost",
    "listenerport",
    "submitto",
    "chosense",
    "excludedces",
    "stepfirst",
    "steplast",
}

DAG_ATTRIBUTES = {"type", "nodes", "dependencies", "aggregator"}


@dataclass(frozen=True)
class Violation:
    code: str
    attribute: str
    message: str

    def as_dict(self) -> dict:
        return {"code": self.code, "attribute": self.attribute, "message": self.message}


class ValidationError(WmsError):
    code = "ValidationFailed"

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        summary = "; ".join(f"{v.attribute}: {v.message}" for v in violations)
        super().__init__(f"invalid description: {summary}")


@dataclass
class JobDescription:
    """A validated, normalized job: the ad plus typed accessors."""

    ad: ClassAd
    job_type: str
    executable: str
    arguments: str
    std_input: str | None
    std_output: str | None
    std_error: str | None
    input_sandbox: list[str]
    output_sandbox: list[str]
    requirements: Expr
    rank: Expr
    user_tags: dict[str, str]
    retry_count: int
    job_steps: int | None
    sub_jobs: int | None
    listener: tuple[str, int] | None
    submit_to: str | None
    chosen_se: str | None
    excluded_ces: list[str]
    step_first: int | None
    step_last: int | None
    warnings: list[Violation] = field(default_factory=list)

    def to_jdl(self) -> str:
        return self.ad.unparse()


@dataclass
class DagDescription:
    ad: ClassAd
    nodes: dict[str, JobDescription]
    dependencies: list[tuple[str, str]]
    aggregator_node: str | None

    def to_jdl(self) -> str:
        return self.ad.unparse()

    @property
    def input_sandbox(self) -> list[str]:
        """Every node's input files, each under its node's lower-cased name."""
        return [f"{node.lower()}/{name}" for node, jd in self.nodes.items() for name in jd.input_sandbox]

    def parents_of(self, node: str) -> list[str]:
        return [p for p, c in self.dependencies if c == node]


class _Reader:
    """Evaluates attributes of a single ad into plain Python values,
    accumulating violations instead of raising."""

    def __init__(self, ad: ClassAd):
        self.ad = ad
        self.violations: list[Violation] = []

    def bad(self, code: str, attribute: str, message: str) -> None:
        self.violations.append(Violation(code, attribute, message))

    def value(self, name: str):
        return attr_value(self.ad, name)

    def text(self, name: str) -> str | None:
        v = self.value(name)
        if v is None:
            return None
        if isinstance(v, Text):
            return v.value
        self.bad("type", name, "must be a string")
        return None

    def integer(self, name: str, minimum: int | None = None) -> int | None:
        v = self.value(name)
        if v is None:
            return None
        if isinstance(v, classad.Integer):
            if minimum is not None and v.value < minimum:
                self.bad("range", name, f"must be >= {minimum}")
                return None
            return v.value
        self.bad("type", name, "must be an integer")
        return None

    def text_list(self, name: str) -> list[str] | None:
        v = self.value(name)
        if v is None:
            return None
        if isinstance(v, Text):
            return [v.value]
        if isinstance(v, ListValue):
            out = []
            for item in v.items:
                if not isinstance(item, Text):
                    self.bad("type", name, "must be a list of strings")
                    return None
                out.append(item.value)
            return out
        self.bad("type", name, "must be a string or list of strings")
        return None


def _check_sandbox_path(reader: _Reader, attr: str, path: str) -> bool:
    if not path:
        reader.bad("path", attr, "empty sandbox path")
        return False
    if path.startswith("/"):
        reader.bad("path", attr, f"absolute path not allowed: {path}")
        return False
    if ".." in path.split("/"):
        reader.bad("path", attr, f"path escapes sandbox: {path}")
        return False
    return True


def validate_job(ad_or_text: ClassAd | str) -> JobDescription:
    """Validate a job ad, apply defaults, and return the normalized
    description.  Raises ValidationError listing every violation.

    Normalization is idempotent: validating the returned description's ad
    again yields an identical result.
    """
    ad = classad.parse_ad(ad_or_text) if isinstance(ad_or_text, str) else ad_or_text
    reader = _Reader(ad)
    warnings: list[Violation] = []

    kind = reader.text("type")
    if kind is not None and kind.lower() != "job":
        reader.bad("type", "Type", f"not a job ad (Type={kind!r})")

    job_type = reader.text("jobtype") or "Normal"
    canonical_type = {t.lower(): t for t in JOB_TYPES}.get(job_type.lower())
    if canonical_type is None:
        if job_type.lower() in ("mpich", "mpi"):
            reader.bad("unsupported", "JobType", "parallel MPI jobs are not supported")
        else:
            reader.bad("value", "JobType", f"unknown job type {job_type!r}")
        canonical_type = "Normal"

    executable = reader.text("executable")
    if executable is None and not any(v.attribute.lower() == "executable" for v in reader.violations):
        reader.bad("missing", "Executable", "executable is mandatory")
    elif executable is not None and not executable.strip():
        reader.bad("value", "Executable", "executable must be non-empty")

    arguments = reader.text("arguments") or ""
    std_input = reader.text("stdinput")
    std_output = reader.text("stdoutput")
    std_error = reader.text("stderror")

    input_sandbox = reader.text_list("inputsandbox") or []
    output_sandbox = reader.text_list("outputsandbox") or []
    for path in input_sandbox:
        _check_sandbox_path(reader, "InputSandbox", path)
    for path in output_sandbox:
        _check_sandbox_path(reader, "OutputSandbox", path)

    retry_count = reader.integer("retrycount", minimum=0)
    if retry_count is None:
        retry_count = 0

    job_steps = reader.integer("jobsteps", minimum=1)
    sub_jobs = reader.integer("subjobs", minimum=1)
    if canonical_type in ("Checkpointable", "Partitionable") and "jobsteps" not in ad:
        reader.bad("missing", "JobSteps", f"{canonical_type} jobs require JobSteps")
    if canonical_type == "Partitionable":
        if "subjobs" not in ad:
            reader.bad("missing", "SubJobs", "Partitionable jobs require SubJobs")
        elif job_steps is not None and sub_jobs is not None and sub_jobs > job_steps:
            reader.bad("range", "SubJobs", "subJobs must be <= jobSteps")

    user_tags: dict[str, str] = {}
    tags_expr = ad.get("usertags")
    if tags_expr is not None:
        if isinstance(tags_expr, SubAd):
            tag_reader = _Reader(tags_expr.ad)
            for name, _expr in tags_expr.ad.items():
                value = tag_reader.text(name)
                if value is None:
                    reader.bad("type", "UserTags", f"tag {name!r} must be a string")
                else:
                    user_tags[name.lower()] = value
        else:
            reader.bad("type", "UserTags", "must be a nested ad of string values")

    listener = None
    host = reader.text("listenerhost")
    port = reader.integer("listenerport")
    if (host is None) != (port is None):
        reader.bad("value", "ListenerHost", "ListenerHost and ListenerPort go together")
    elif port is not None and not (1 <= port <= 65535):
        reader.bad("range", "ListenerPort", "port must be in 1..65535")
    elif host is not None and port is not None:
        listener = (host, port)

    submit_to = reader.text("submitto")
    chosen_se = reader.text("chosense")
    excluded = reader.text_list("excludedces") or []
    step_first = reader.integer("stepfirst", minimum=0)
    step_last = reader.integer("steplast", minimum=0)

    for name, _expr in ad.items():
        if name.lower() not in KNOWN_ATTRIBUTES:
            warnings.append(Violation("unknown-attribute", name, "attribute not recognized; preserved"))

    if reader.violations:
        raise ValidationError(reader.violations)

    normalized = ad
    if "jobtype" not in normalized:
        normalized = normalized.with_attr("JobType", classad.Literal(Text(canonical_type)))
    if "requirements" not in normalized:
        normalized = normalized.with_attr("Requirements", classad.parse_expr(DEFAULT_REQUIREMENTS))
    if "rank" not in normalized:
        normalized = normalized.with_attr("Rank", classad.parse_expr(DEFAULT_RANK))
    if "retrycount" not in normalized:
        normalized = normalized.with_attr("RetryCount", classad.Literal(classad.Integer(retry_count)))

    return JobDescription(
        ad=normalized,
        job_type=canonical_type,
        executable=executable or "",
        arguments=arguments,
        std_input=std_input,
        std_output=std_output,
        std_error=std_error,
        input_sandbox=input_sandbox,
        output_sandbox=output_sandbox,
        requirements=normalized.get("requirements"),
        rank=normalized.get("rank"),
        user_tags=user_tags,
        retry_count=retry_count,
        job_steps=job_steps,
        sub_jobs=sub_jobs,
        listener=listener,
        submit_to=submit_to,
        chosen_se=chosen_se,
        excluded_ces=excluded,
        step_first=step_first,
        step_last=step_last,
        warnings=warnings,
    )


def _find_cycle(nodes: list[str], edges: list[tuple[str, str]]) -> list[str] | None:
    """DFS cycle search returning one witness path, or None when acyclic."""
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for p, c in edges:
        children[p].append(c)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    path: list[str] = []

    def visit(n: str) -> list[str] | None:
        color[n] = GRAY
        path.append(n)
        for ch in children[n]:
            if color[ch] == GRAY:
                return path[path.index(ch) :] + [ch]
            if color[ch] == WHITE:
                found = visit(ch)
                if found:
                    return found
        path.pop()
        color[n] = BLACK
        return None

    for n in nodes:
        if color[n] == WHITE:
            found = visit(n)
            if found:
                return found
    return None


def validate_dag(ad_or_text: ClassAd | str) -> DagDescription:
    """Validate a DAG ad: Type="DAG", a nested ad per node under Nodes,
    and Dependencies as a list of {parent, child} name pairs."""
    ad = classad.parse_ad(ad_or_text) if isinstance(ad_or_text, str) else ad_or_text
    reader = _Reader(ad)

    kind = reader.text("type")
    if kind is None or kind.lower() != "dag":
        reader.bad("type", "Type", 'DAG ads require Type = "DAG"')

    nodes: dict[str, JobDescription] = {}
    node_keys: dict[str, str] = {}
    nodes_expr = ad.get("nodes")
    if not isinstance(nodes_expr, SubAd):
        reader.bad("missing", "Nodes", "Nodes must be a nested ad of job ads")
    else:
        for name, expr in nodes_expr.ad.items():
            if not isinstance(expr, SubAd):
                reader.bad("type", f"Nodes.{name}", "node must be a nested job ad")
                continue
            try:
                nodes[name] = validate_job(expr.ad)
            except ValidationError as exc:
                for v in exc.violations:
                    reader.bad(v.code, f"{name}.{v.attribute}", v.message)
            node_keys[name.lower()] = name

    dependencies: list[tuple[str, str]] = []
    deps_value = reader.value("dependencies")
    if deps_value is None:
        deps_value = ListValue(())
    if not isinstance(deps_value, ListValue):
        reader.bad("type", "Dependencies", "must be a list of {parent, child} pairs")
    else:
        for item in deps_value.items:
            if (
                not isinstance(item, ListValue)
                or len(item.items) != 2
                or not all(isinstance(x, Text) for x in item.items)
            ):
                reader.bad("type", "Dependencies", "each dependency must be {\"parent\", \"child\"}")
                continue
            parent, child = (x.value for x in item.items)
            ok = True
            for endpoint in (parent, child):
                if endpoint.lower() not in node_keys:
                    reader.bad("value", "Dependencies", f"unknown node {endpoint!r}")
                    ok = False
            if ok:
                dependencies.append((node_keys[parent.lower()], node_keys[child.lower()]))

    aggregator = reader.text("aggregator")
    if aggregator is not None:
        if aggregator.lower() not in node_keys:
            reader.bad("value", "Aggregator", f"unknown node {aggregator!r}")
        else:
            aggregator = node_keys[aggregator.lower()]

    if not any(v.attribute.startswith("Dependencies") for v in reader.violations):
        cycle = _find_cycle(list(nodes.keys()), dependencies)
        if cycle:
            reader.bad("cycle", "Dependencies", "dependency cycle: " + " -> ".join(cycle))

    if reader.violations:
        raise ValidationError(reader.violations)

    return DagDescription(ad=ad, nodes=nodes, dependencies=dependencies, aggregator_node=aggregator)


def validate_description(ad_or_text: ClassAd | str) -> JobDescription | DagDescription:
    """Validate a DAG ad (Type = "DAG") or else a job ad: the one place
    that decides whether a description is a DAG."""
    ad = classad.parse_ad(ad_or_text) if isinstance(ad_or_text, str) else ad_or_text
    kind = attr_value(ad, "type")
    if isinstance(kind, Text) and kind.value.lower() == "dag":
        return validate_dag(ad)
    return validate_job(ad)
