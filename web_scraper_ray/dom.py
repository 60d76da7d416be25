"""Minimal DOM with BeautifulSoup-compatible semantics for the subset of
operations the extraction kernel needs.

The reference (``contxt``) uses ``BeautifulSoup(html, "html.parser")``
throughout (``contxt/scraper.py:274``, ``contxt/formatters/markdown_formatter.py:95``).
bs4 is not available in this environment, so this module reimplements the
needed tree model, with the tree :class:`html.parser.HTMLParser` yields
under bs4's tree-building rules:

* ``Node`` — an element with ``name``, ``attrs`` (dict), ``children``.
* ``TextNode`` / ``CommentNode`` — leaves; like bs4's ``NavigableString``
  and ``Comment``, a comment *is a* text node (``CommentNode`` subclasses
  ``TextNode``) because bs4's ``Comment`` subclasses ``NavigableString``
  and several reference code paths depend on that (e.g. the markdown
  traversal's text branch, ``markdown_formatter.py:144-149``).
* ``get_text(strip=...)`` matches bs4: concatenate descendant strings;
  with ``strip=True`` each string is stripped and empties dropped.
* ``find`` / ``find_all`` with tag-name, attr-dict (``class`` is
  whitespace-multi-valued like bs4), and predicate matching.
* ``decompose``, ``replace_with``, ``clear``/``append`` and the
  ``.string`` accessor used by the span-concatenation pass
  (``contxt/scraper.py:365-405``).
* ``serialize()`` ≈ ``str(soup)`` with bs4's "minimal" entity escaping.

Parsing: :func:`parse` first runs a single compiled-``re`` scanner
(``_scan``) that builds the tree directly. It covers a verified subset of
the grammar: start, end and self-closing tags with quoted, unquoted or
valueless attributes; text; comments; ``<!DOCTYPE>``; and script/style
raw content up to a plain ``</script>``/``</style>``. Any page with
anything else in it (a stray ``<``, ``<?``, a bogus ``<!``, an
unterminated tag or comment, ``</`` inside script/style, an unquoted
attribute value touching ``/>``) is parsed whole by ``_TreeBuilder`` on
html.parser instead, so the tree never depends on which path ran;
tests/test_dom.py checks the two agree on fuzzed tag soup.

The document index: :func:`parse` returns a :class:`Document`, the root
``Node`` plus two lists it fills as it builds the tree, on either path:
``elements``, every element it created, and ``comments``, every comment.
Nodes are created in document order, which is preorder, so both lists
are in preorder, and the kernel reads them in place of tree walks. The
lists are never updated after the parse, so a node the kernel removes
stays listed, *detached*: its parent chain ends at ``None``, not at the
document (:meth:`Document.holds`). A consumer either does work that is
harmless on a detached node (pruning attributes, extracting a comment,
merging spans inside a removed subtree) or checks that its node is
still held. Order among the held nodes never changes, because the
kernel removes elements and replaces text but never moves or creates
an element. :meth:`Document.release` clears every listed element's
children, the document's own and both lists; what is left holds only
parent links, which point up, so reference counting frees the tree
without the cyclic GC. A released document is empty; only the kernel's
``extract_page`` releases, once it has taken everything it returns.

Entity handling: ``convert_charrefs=True`` (the html.parser default, and
what bs4's html.parser tree builder uses) — character references decode
to text at parse time and re-escape minimally at serialization.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Optional, Union

# HTML void elements (no closing tag, serialized self-closed like bs4's
# html.parser builder renders them).
VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)



class TextNode:
    """A text leaf. ``name`` is ``None`` (like bs4 NavigableString)."""

    __slots__ = ("text", "parent")
    name = None

    def __init__(self, text: str, parent: Optional["Node"] = None):
        self.text = text
        self.parent = parent

    # bs4 NavigableString.string returns itself.
    @property
    def string(self) -> str:
        return self.text

    def get_text(self, separator: str = "", strip: bool = False) -> str:
        if strip:
            t = self.text.strip()
            return t
        return self.text

    def replace_with(self, replacement: Union[str, "TextNode", "Node"]) -> None:
        if self.parent is None:
            return
        if isinstance(replacement, str):
            replacement = TextNode(replacement)
        idx = self.parent.children.index(self)
        replacement.parent = self.parent
        self.parent.children[idx] = replacement
        self.parent = None

    def extract(self) -> "TextNode":
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TextNode({self.text!r})"


class CommentNode(TextNode):
    """An HTML comment; subclasses TextNode the way bs4's Comment
    subclasses NavigableString (see module docstring)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CommentNode({self.text!r})"


AnyNode = Union["Node", TextNode]


class Node:
    """An element node."""

    __slots__ = ("name", "attrs", "children", "parent")

    def __init__(self, name: str, attrs: Optional[dict] = None,
                 parent: Optional["Node"] = None):
        self.name = name
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[AnyNode] = []
        self.parent = parent

    # -- construction -----------------------------------------------------
    def append(self, child: Union[str, AnyNode]) -> None:
        if isinstance(child, str):
            child = TextNode(child)
        child.parent = self
        self.children.append(child)

    def clear(self) -> None:
        for c in self.children:
            c.parent = None
        self.children = []

    # -- bs4-compatible accessors ----------------------------------------
    def get(self, key: str, default=None):
        return self.attrs.get(key, default)

    @property
    def string(self) -> Optional[str]:
        """bs4 semantics: the single string child if the element has
        exactly one child and it is a text node, else ``None`` (one
        level of tag nesting also forwards in bs4; the kernel only
        relies on the single-text-child case, ``scraper.py:392``)."""
        if len(self.children) == 1:
            only = self.children[0]
            if isinstance(only, TextNode):
                return only.text
            if isinstance(only, Node):
                return only.string
        return None

    @string.setter
    def string(self, value: str) -> None:
        self.clear()
        self.append(TextNode(value))

    def get_text(self, separator: str = "", strip: bool = False) -> str:
        """bs4 ``get_text``: join descendant strings (comments excluded —
        bs4's ``.strings`` skips non-plain NavigableString subclasses for
        text extraction via ``_all_strings`` default types).

        Hot path (called ~35×/page by the cleaning kernel): inline
        explicit-stack preorder walk — a generator would cost ~1.4
        µs/node in pure yield overhead at this call volume."""
        parts = []
        stack = list(reversed(self.children))
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            cls = node.__class__
            if cls is TextNode:
                s = node.text
                if strip:
                    s = s.strip()
                    if not s:
                        continue
                parts.append(s)
            elif cls is not CommentNode:  # element: descend
                push(reversed(node.children))
        return separator.join(parts)

    # -- search -----------------------------------------------------------
    def _matches(self, node: "Node", name, attrs: Optional[dict]) -> bool:
        if name is not None:
            if callable(name):
                return bool(name(node))
            if isinstance(name, (list, tuple, set, frozenset)):
                if node.name not in name:
                    return False
            elif node.name != name:
                return False
        if attrs:
            for k, v in attrs.items():
                actual = node.attrs.get(k)
                if actual is None:
                    return False
                if k == "class":
                    # bs4: class is multi-valued, match any whitespace token
                    if v not in actual.split():
                        return False
                elif actual != v:
                    return False
        return True

    def find_all(self, name=None, attrs: Optional[dict] = None,
                 recursive: bool = True, string: Optional[bool] = None,
                 limit: Optional[int] = None) -> list:
        """Subset of bs4 find_all. ``string=True`` returns text nodes
        (including comments, like bs4 ``find_all(string=True)``).
        ``name=True`` matches every element (bs4 ``find_all(True)``).

        Hot path: explicit-stack preorder walk instead of a generator, with
        the dominant call shape — plain string tag name, no attrs —
        matched inline rather than through ``_matches``."""
        out: list = []
        if not recursive:
            for node in self.children:
                if string is not None:
                    if isinstance(node, TextNode):
                        out.append(node)
                elif isinstance(node, Node):
                    if name is True or self._matches(node, name, attrs):
                        out.append(node)
                if limit is not None and len(out) >= limit:
                    break
            return out
        want_text = string is not None
        simple = member = False
        if not want_text and name is not True and not attrs:
            if isinstance(name, str):
                simple = True
            elif isinstance(name, (list, tuple, set, frozenset)):
                member = True
        stack = list(reversed(self.children))
        pop = stack.pop
        push = stack.extend
        while stack:
            node = pop()
            if isinstance(node, TextNode):
                if want_text:
                    out.append(node)
                    if limit is not None and len(out) >= limit:
                        break
                continue
            # element
            if simple:
                if node.name == name:
                    out.append(node)
                    if limit is not None and len(out) >= limit:
                        break
            elif member:
                if node.name in name:
                    out.append(node)
                    if limit is not None and len(out) >= limit:
                        break
            elif not want_text and (
                name is True or self._matches(node, name, attrs)
            ):
                out.append(node)
                if limit is not None and len(out) >= limit:
                    break
            push(reversed(node.children))
        return out

    def find(self, name=None, attrs: Optional[dict] = None,
             recursive: bool = True):
        res = self.find_all(name, attrs, recursive=recursive, limit=1)
        return res[0] if res else None

    # -- mutation ---------------------------------------------------------
    def decompose(self) -> None:
        if self.parent is not None:
            try:
                self.parent.children.remove(self)
            except ValueError:
                pass
            self.parent = None
        self.clear()

    def replace_with(self, replacement: Union[str, AnyNode]) -> None:
        if self.parent is None:
            return
        if isinstance(replacement, str):
            replacement = TextNode(replacement)
        idx = self.parent.children.index(self)
        replacement.parent = self.parent
        self.parent.children[idx] = replacement
        self.parent = None

    # -- serialization ----------------------------------------------------
    def serialize(self) -> str:
        out: list[str] = []
        _serialize_into(self, out, root=True)
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.name} attrs={self.attrs} children={len(self.children)}>"


ROOT_NAME = "[document]"


class Document(Node):
    """The root :func:`parse` returns, with the preorder index of the
    elements and comments it created (see module docstring)."""

    __slots__ = ("elements", "comments")

    def __init__(self) -> None:
        super().__init__(ROOT_NAME)
        self.elements: list[Node] = []
        self.comments: list[CommentNode] = []

    def holds(self, node: AnyNode) -> bool:
        """Whether ``node`` is still in this tree: its parent chain
        reaches the document."""
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def release(self) -> None:
        """Drop every parent→child link so the tree is freed by
        reference counting; the document is empty afterwards."""
        for el in self.elements:
            el.children.clear()
        self.children.clear()
        self.elements.clear()
        self.comments.clear()


def escape_text(text: str) -> str:
    """bs4 'minimal' formatter text escaping: & < >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    """bs4 'minimal' formatter attribute escaping: & and double quote."""
    return value.replace("&", "&amp;").replace('"', "&quot;")


def _serialize_into(node: AnyNode, out: list[str], root: bool = False) -> None:
    """Iterative serializer (explicit stack): arbitrary nesting depth
    must not hit Python's recursion limit — crawled pages are
    adversarial input."""
    # stack holds either nodes to open or ready-made closing strings
    stack: list = [(node, root)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        cur, is_root_slot = item
        if isinstance(cur, CommentNode):
            out.append(f"<!--{cur.text}-->")
            continue
        if isinstance(cur, TextNode):
            out.append(escape_text(cur.text))
            continue
        is_root = is_root_slot and cur.name == ROOT_NAME
        if not is_root:
            # most nodes carry no attributes after cleaning — skip the
            # generator-join entirely for them (hot path)
            attrs = "" if not cur.attrs else "".join(
                f" {k}" if v is None else f' {k}="{escape_attr(v)}"'
                for k, v in cur.attrs.items()
            )
            if cur.name in VOID_ELEMENTS and not cur.children:
                out.append(f"<{cur.name}{attrs}/>")
                continue
            out.append(f"<{cur.name}{attrs}>")
            stack.append(f"</{cur.name}>")
        for child in reversed(cur.children):
            stack.append((child, False))


def merge_adjacent_text(node: Node) -> None:
    """Normalize a tree to its serialize→parse fixed point, in place.

    For trees :func:`parse` produced (lowercase names, decoded entities)
    with no script/style CDATA content, re-parsing the serialization
    changes exactly two things: runs of adjacent plain text nodes merge
    into one, and empty text nodes disappear (``handle_data`` skips
    empty data). Applying those two rewrites directly is equivalent and
    skips a full pure-Python parse — used by the extraction kernel's
    markdown step (a CommentNode is a barrier, never merged).

    Iterative (explicit worklist): depth-proof against adversarial
    nesting, like the serializer."""
    worklist: list[Node] = [node]
    while worklist:
        cur = worklist.pop()
        new_children: list[AnyNode] = []
        run: list[str] = []
        for child in cur.children:
            if type(child) is TextNode:
                run.append(child.text)
                continue
            if run:
                merged = "".join(run)
                if merged:
                    new_children.append(TextNode(merged, cur))
                run = []
            new_children.append(child)
            if isinstance(child, Node):
                worklist.append(child)
        if run:
            merged = "".join(run)
            if merged:
                new_children.append(TextNode(merged, cur))
        cur.children = new_children


class _TreeBuilder(HTMLParser):
    """Builds a Node tree. Mirrors bs4's html.parser tree builder for the
    constructs the kernel/corpus use: void elements never take children;
    an unmatched end tag is ignored; a mismatched end tag pops up to the
    nearest matching open element (html.parser itself does no implicit
    closes, and neither does bs4 on this builder).

    The reference parser: :func:`parse` runs it only for pages the fast
    scanner does not cover."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Document()
        self.stack: list[Node] = [self.root]

    @staticmethod
    def _attr_dict(attrs) -> dict:
        # bs4's html.parser builder normalizes valueless attributes
        # (<a href>) to "" — html.parser itself yields None
        return {k: (v if v is not None else "") for k, v in attrs}

    def handle_starttag(self, tag: str, attrs) -> None:
        # attr-less tags (the majority) skip the normalizing dict build
        node = Node(tag, self._attr_dict(attrs) if attrs else None)
        self.stack[-1].append(node)
        self.root.elements.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        node = Node(tag, self._attr_dict(attrs) if attrs else None)
        self.stack[-1].append(node)
        self.root.elements.append(node)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].name == tag:
                del self.stack[i:]
                return
        # unmatched end tag: ignored

    def handle_data(self, data: str) -> None:
        if data:
            self.stack[-1].append(TextNode(data))

    def handle_comment(self, data: str) -> None:
        node = CommentNode(data)
        self.stack[-1].append(node)
        self.root.comments.append(node)

    def handle_decl(self, decl: str) -> None:
        # DOCTYPE etc. — dropped (the kernel never reads it; bs4 keeps a
        # Doctype node but no reference code path consumes it).
        pass

    def error(self, message):  # pragma: no cover - py<3.10 compat hook
        pass


# -- the fast scanner ---------------------------------------------------
# One compiled pattern tokenizes a whole page with ``findall``; the loop
# in :func:`_scan` builds the tree from the tuples. Each construct is a
# strict subset of what html.parser accepts, written so that html.parser
# reads it the same way; every other ``<`` lands in the ``stray`` group
# and the page goes to ``_TreeBuilder``.
_SP = r"[ \t\n\r\f]"
_ATTR_NAME = r"[^\s\"'<>/=]+"
#: one attribute (name, double-, single- and unquoted value) of a start
#: tag the token pattern has already accepted
_ATTR = re.compile(
    rf"{_SP}+({_ATTR_NAME})"
    rf"(?:{_SP}*={_SP}*(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'<>=]+)))?"
)
# An unquoted value must end at whitespace, or at a ``>`` it does not
# touch with a ``/``: html.parser reads ``<a b=c/>`` as b="c/" on an
# open tag, a form left to the fallback.
_ATTRS = (
    rf"(?:{_SP}+{_ATTR_NAME}(?:{_SP}*={_SP}*(?:\"[^\"]*\"|'[^']*'"
    rf"|[^\s\"'<>=]+(?=[ \t\n\r\f]|(?<!/)>)))?)*"
)
_TOKEN = re.compile(
    # 1 text up to the next ``<``
    r"([^<]*)(?:"
    # 2-5 script/style: name, attributes, raw content up to the first
    # ``</``, and the name in that end tag if it is a plain one
    r"<([sS][cC][rR][iI][pP][tT]|[sS][tT][yY][lL][eE])"
    rf"({_ATTRS}){_SP}*>([^<]*(?:<(?!/)[^<]*)*)(?:</([a-zA-Z]+)>)?"
    # 6-8 start tag: name, attributes, "/" if self-closing
    rf"|<([a-zA-Z][-.:\w]*)({_ATTRS}){_SP}*(/?)>"
    # 9 end tag
    rf"|</([a-zA-Z][-.a-zA-Z0-9:_]*){_SP}*>"
    # 10 comment ending at the first ``--\s*>``, which must be ``-->``;
    # ``<!-->``, ``<!--->`` and a body holding ``--!>`` are left out
    r"|(<!--(?!-?>)[^-]*(?:-(?!-\s*>|-!>)[^-]*)*-->)"
    # doctype (dropped, like ``_TreeBuilder.handle_decl``)
    r"|<![dD][oO][cC][tT][yY][pP][eE][^<>]*>"
    # 11 any other ``<``: out of the subset
    r"|(<)"
    r"|\Z)"
)


def _attr_dict(text: str) -> dict:
    attrs = {}
    for name, dq, sq, uq in _ATTR.findall(text):
        value = dq or sq or uq  # valueless -> "" as in _TreeBuilder
        attrs[name.lower()] = unescape(value) if "&" in value else value
    return attrs


def _scan(html: str) -> Optional[Document]:
    """The tree ``_TreeBuilder`` builds for ``html``, or ``None`` when
    the page leaves the scanner's subset (the caller then falls back).
    Iterative: nesting depth is unbounded."""
    root = Document()
    elements = root.elements
    stack = [root]
    top = root
    kids = root.children
    for (text, sname, sattrs, raw, sclose, name, attrs, slash, ename,
         comment, stray) in _TOKEN.findall(html):
        if text:
            if "&" in text:
                text = unescape(text)  # may decode to "" (e.g. &#1;)
            if text:
                kids.append(TextNode(text, top))
        if name:
            name = name.lower()
            node = Node(name, _attr_dict(attrs) if attrs else None, top)
            kids.append(node)
            elements.append(node)
            if not slash and name not in VOID_ELEMENTS:
                stack.append(node)
                top = node
                kids = node.children
        elif ename:
            ename = ename.lower()
            if ename == top.name:
                stack.pop()
                top = stack[-1]
                kids = top.children
            elif ename not in VOID_ELEMENTS:
                # pop up to the nearest open match; unmatched: ignored
                for i in range(len(stack) - 2, 0, -1):
                    if stack[i].name == ename:
                        del stack[i:]
                        top = stack[-1]
                        kids = top.children
                        break
        elif sname:
            sname = sname.lower()
            if sclose.lower() != sname:
                return None  # unterminated, or another "</" inside
            node = Node(sname, _attr_dict(sattrs) if sattrs else None, top)
            kids.append(node)
            elements.append(node)
            if raw:
                node.children.append(TextNode(raw, node))
        elif comment:
            node = CommentNode(comment[4:-3], top)
            kids.append(node)
            root.comments.append(node)
        elif stray:
            return None
    return root


def parse(html: str) -> Document:
    """Parse HTML into an indexed document root (name ``[document]``)."""
    root = _scan(html)
    if root is None:
        builder = _TreeBuilder()
        builder.feed(html)
        builder.close()
        root = builder.root
    return root
