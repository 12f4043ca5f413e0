//! A dependency-free XML subset.
//!
//! Supports what the paper's proxy documents need: nested elements,
//! attributes, character data, the five standard entities, comments and
//! an optional declaration (both skipped on parse). No namespaces, no
//! CDATA, no DTDs.

use std::fmt;

/// An XML element node.
///
/// # Example
///
/// ```
/// use mobivine_proxydl::xml::XmlNode;
///
/// let doc = XmlNode::new("method")
///     .attr("name", "addProximityAlert")
///     .child(XmlNode::new("param").attr("name", "latitude").text("1"));
/// let rendered = doc.render();
/// let parsed = XmlNode::parse(&rendered)?;
/// assert_eq!(parsed, doc);
/// # Ok::<(), mobivine_proxydl::xml::XmlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlNode {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element
    /// (leading/trailing whitespace trimmed).
    pub text: String,
}

/// Error parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xml parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Deepest nesting below the root element that [`XmlNode::parse`]
/// accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// overflowing the stack; the catalog's descriptors nest only a few
/// levels.
pub const MAX_DEPTH: usize = 64;

impl XmlNode {
    /// Creates an element with no attributes, children or text.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            ..Self::default()
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        self.attributes.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Sets the text content (builder style).
    pub fn text(mut self, text: &str) -> Self {
        self.text = text.to_owned();
        self
    }

    /// Looks up an attribute value.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given element name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given element name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Renders the document with 2-space indentation and a declaration.
    pub fn render(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (name, value) in &self.attributes {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            out.push_str(&escape(value));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if self.children.is_empty() {
            out.push_str(&escape(&self.text));
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
            return;
        }
        out.push('\n');
        if !self.text.is_empty() {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&escape(&self.text));
            out.push('\n');
        }
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }

    /// Parses a document into its root element.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<Self, XmlError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_prolog();
        let root = parser.parse_element()?;
        parser.skip_misc();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after root element"));
        }
        Ok(root)
    }
}

/// Escapes the five standard XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// Returns the byte offset of an unknown or unterminated entity.
pub fn unescape(s: &str) -> Result<String, usize> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            let rest = &s[i..];
            let (entity, len) = if rest.starts_with("&amp;") {
                ('&', 5)
            } else if rest.starts_with("&lt;") {
                ('<', 4)
            } else if rest.starts_with("&gt;") {
                ('>', 4)
            } else if rest.starts_with("&quot;") {
                ('"', 6)
            } else if rest.starts_with("&apos;") {
                ('\'', 6)
            } else {
                return Err(i);
            };
            out.push(entity);
            i += len;
        } else {
            // `i` always lands on a char boundary (it only advances by
            // whole entities or `len_utf8`), but report the offset as a
            // malformed-input error rather than panicking if that
            // invariant is ever violated.
            let Some(c) = s[i..].chars().next() else {
                return Err(i);
            };
            out.push(c);
            i += c.len_utf8();
        }
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Elements open above the one being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) {
        self.skip_whitespace();
        if self.starts_with("<?xml") {
            if let Some(end) = find_from(self.bytes, self.pos, b"?>") {
                self.pos = end + 2;
            }
        }
        self.skip_misc();
    }

    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                match find_from(self.bytes, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => {
                        self.pos = self.bytes.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("name is not valid utf-8"))?;
        Ok(name.to_owned())
    }

    fn parse_element(&mut self) -> Result<XmlNode, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(self.error("expected '<'"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut node = XmlNode::new(&name);
        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.error("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.error("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.error("expected quoted attribute value")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.error("unterminated attribute value"));
                    }
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("attribute value is not utf-8"))?;
                    let value = unescape(raw).map_err(|off| XmlError {
                        offset: start + off,
                        message: "bad entity in attribute".to_owned(),
                    })?;
                    self.pos += 1;
                    node.attributes.push((attr_name, value));
                }
                None => return Err(self.error("unexpected end inside tag")),
            }
        }
        // Content.
        let mut text = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.error("unexpected end inside element content"));
            }
            if self.starts_with("<!--") {
                match find_from(self.bytes, self.pos + 4, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.error("unterminated comment")),
                }
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(self.error(&format!(
                        "mismatched closing tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.error("expected '>' in closing tag"));
                }
                self.pos += 1;
                node.text = text.trim().to_owned();
                return Ok(node);
            }
            if self.peek() == Some(b'<') {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(&format!("elements nest deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let child = self.parse_element();
                self.depth -= 1;
                node.children.push(child?);
                continue;
            }
            let start = self.pos;
            while self.pos < self.bytes.len() && self.peek() != Some(b'<') {
                self.pos += 1;
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.error("text is not utf-8"))?;
            let unescaped = unescape(raw).map_err(|off| XmlError {
                offset: start + off,
                message: "bad entity in text".to_owned(),
            })?;
            text.push_str(&unescaped);
        }
    }
}

fn find_from(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| from + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let node = XmlNode::new("proxy")
            .attr("name", "Location")
            .child(XmlNode::new("method").attr("name", "getLocation"))
            .child(XmlNode::new("method").attr("name", "addProximityAlert"));
        assert_eq!(node.attribute("name"), Some("Location"));
        assert_eq!(
            node.find("method").unwrap().attribute("name"),
            Some("getLocation")
        );
        assert_eq!(node.find_all("method").count(), 2);
        assert!(node.find("missing").is_none());
    }

    #[test]
    fn render_parse_round_trip_simple() {
        let doc = XmlNode::new("a")
            .attr("x", "1")
            .child(XmlNode::new("b").text("hello"))
            .child(XmlNode::new("c"));
        let parsed = XmlNode::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn round_trip_with_entities() {
        let doc = XmlNode::new("m")
            .attr("expr", "a < b && c > \"d\"")
            .text("5 < 6 & 'quotes'");
        let parsed = XmlNode::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parses_declaration_and_comments() {
        let input = r#"<?xml version="1.0"?>
<!-- a comment -->
<root><!-- inner --><leaf/></root>
<!-- trailing -->"#;
        let parsed = XmlNode::parse(input).unwrap();
        assert_eq!(parsed.name, "root");
        assert_eq!(parsed.children.len(), 1);
    }

    #[test]
    fn parses_single_quoted_attributes() {
        let parsed = XmlNode::parse("<a k='v'/>").unwrap();
        assert_eq!(parsed.attribute("k"), Some("v"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = XmlNode::parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn truncated_documents_rejected() {
        assert!(XmlNode::parse("<a>").is_err());
        assert!(XmlNode::parse("<a attr=>").is_err());
        assert!(XmlNode::parse("<a attr=\"v>").is_err());
        assert!(XmlNode::parse("").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(XmlNode::parse("<a/><b/>").is_err());
        assert!(XmlNode::parse("<a/>junk").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(XmlNode::parse("<a>&bogus;</a>").is_err());
        assert!(XmlNode::parse("<a k=\"&bad;\"/>").is_err());
    }

    #[test]
    fn whitespace_around_text_is_trimmed() {
        let parsed = XmlNode::parse("<a>\n  padded  \n</a>").unwrap();
        assert_eq!(parsed.text, "padded");
    }

    #[test]
    fn escape_unescape_inverse() {
        let original = "a<b>&\"c'д";
        assert_eq!(unescape(&escape(original)).unwrap(), original);
    }

    #[test]
    fn nested_depth() {
        let mut doc = XmlNode::new("leaf").text("x");
        for i in 0..20 {
            doc = XmlNode::new(&format!("level{i}")).child(doc);
        }
        let parsed = XmlNode::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let deep = |levels: usize| "<a>".repeat(levels) + &"</a>".repeat(levels);
        assert!(XmlNode::parse(&deep(MAX_DEPTH + 1)).is_ok());
        let err = XmlNode::parse(&deep(MAX_DEPTH + 2)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        // 100,000 levels (600 KB) once aborted the process; in a small
        // thread stack it must come back as an error.
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || XmlNode::parse(&deep(100_000)).is_err())
            .expect("spawn")
            .join()
            .expect("the parser returned instead of overflowing the stack");
        assert!(parsed);
    }
}
