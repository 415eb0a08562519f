"""The README's Python sessions run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for k, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {k + 1}", str(README), 0)
        assert test.examples
        runner.run(test, out=report.append)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed, "".join(report)
