//! A small HTML tokenizer: enough to find inline images (what an HTTP
//! client needs to drive the 43-request workload), rewrite tag case (the
//! paper's compression observation), and strip images for the CSS
//! experiment.

/// A token of an HTML byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmlToken {
    /// Raw text between tags.
    Text(String),
    /// A tag with its name and raw attribute string, e.g.
    /// `Tag { name: "img", attrs: " src=\"a.gif\" width=10", closing: false }`.
    Tag {
        /// Tag name as written.
        name: String,
        /// Raw attribute text (leading space included).
        attrs: String,
        /// True for `</...>` end tags.
        closing: bool,
    },
    /// `<!-- ... -->` comments and `<!DOCTYPE ...>` declarations.
    Decl(String),
}

/// Tokenize HTML. Unterminated trailing constructs are emitted as text,
/// which is what forgiving mid-90s parsers did.
pub fn tokenize(html: &str) -> Vec<HtmlToken> {
    let bytes = html.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut text_start = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if text_start < i {
            tokens.push(HtmlToken::Text(html[text_start..i].to_string()));
        }
        text_start = i;
        // Comment / declaration.
        if bytes[i..].starts_with(b"<!--") {
            if let Some(end) = html[i..].find("-->") {
                tokens.push(HtmlToken::Decl(html[i..i + end + 3].to_string()));
                i += end + 3;
                text_start = i;
                continue;
            }
        }
        if bytes[i..].starts_with(b"<!") {
            if let Some(end) = html[i..].find('>') {
                tokens.push(HtmlToken::Decl(html[i..i + end + 1].to_string()));
                i += end + 1;
                text_start = i;
                continue;
            }
        }
        // Ordinary tag.
        let Some(end) = html[i..].find('>') else {
            // Unterminated: emit the remainder as text.
            tokens.push(HtmlToken::Text(html[i..].to_string()));
            return tokens;
        };
        let inner = &html[i + 1..i + end];
        let (closing, inner) = match inner.strip_prefix('/') {
            Some(rest) => (true, rest),
            None => (false, inner),
        };
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        let name = inner[..name_end].to_string();
        let attrs = inner[name_end..].to_string();
        if name.is_empty() {
            // "<>" or "< " — treat as text.
            i += 1;
            continue;
        }
        tokens.push(HtmlToken::Tag {
            name,
            attrs,
            closing,
        });
        i += end + 1;
        text_start = i;
    }
    if text_start < html.len() {
        tokens.push(HtmlToken::Text(html[text_start..].to_string()));
    }
    tokens
}

/// Serialize tokens back to HTML.
pub fn serialize(tokens: &[HtmlToken]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t {
            HtmlToken::Text(s) => out.push_str(s),
            HtmlToken::Decl(s) => out.push_str(s),
            HtmlToken::Tag {
                name,
                attrs,
                closing,
            } => {
                out.push('<');
                if *closing {
                    out.push('/');
                }
                out.push_str(name);
                out.push_str(attrs);
                out.push('>');
            }
        }
    }
    out
}

/// Byte offset of the first case-insensitive occurrence of `needle=`
/// in `haystack`, starting at `from`. ASCII case folding only, so byte
/// offsets are valid `str` indices.
fn find_attr_needle(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let end = haystack.len().checked_sub(needle.len() + 1)?;
    (from..=end).find(|&i| {
        haystack[i + needle.len()] == b'='
            && haystack[i..i + needle.len()].eq_ignore_ascii_case(needle)
    })
}

/// Extract one attribute's value from a raw attribute string. Handles
/// quoted and unquoted values, case-insensitive names. Allocation-free:
/// the returned slice borrows from `attrs`.
pub fn attr_value<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    let bytes = attrs.as_bytes();
    let needle = name.as_bytes();
    let mut search = 0;
    loop {
        let idx = find_attr_needle(bytes, needle, search)?;
        // Must be preceded by whitespace (or start).
        if idx > 0 && !bytes[idx - 1].is_ascii_whitespace() {
            search = idx + needle.len() + 1;
            continue;
        }
        let after = idx + needle.len() + 1;
        let rest = &attrs[after..];
        return Some(if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped.find('"').unwrap_or(stripped.len());
            &stripped[..end]
        } else if let Some(stripped) = rest.strip_prefix('\'') {
            let end = stripped.find('\'').unwrap_or(stripped.len());
            &stripped[..end]
        } else {
            let end = rest
                .find(|c: char| c.is_ascii_whitespace())
                .unwrap_or(rest.len());
            &rest[..end]
        });
    }
}

/// The `src` of every `<img>` tag, in document order — exactly what a
/// browser fetches after parsing the base document.
pub fn inline_image_sources(html: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_inline_image_source(html, |src| out.push(src.to_string()));
    out
}

/// Visit the `src` of every `<img>` tag in document order without
/// building a token list, with zero allocations. Yields precisely the
/// sources [`inline_image_sources`] returns; a whole-document
/// [`scan_inline_image_sources`].
pub fn for_each_inline_image_source(html: &str, f: impl FnMut(&str)) {
    scan_inline_image_sources(html, 0, f);
}

/// Resume an `<img src>` scan at checkpoint `from` and return the next
/// checkpoint — the hot path of streaming discovery, which sees the
/// document grow chunk by chunk and scans each byte about once.
///
/// A checkpoint is the end of the last construct whose parse cannot
/// change when more bytes arrive: plain text and terminated tags,
/// comments and declarations. An unterminated tag is not, and neither
/// is an open `<!--` whose `-->` has not arrived: until it does, the
/// scan falls through to `<!`…`>` handling and may report images a
/// longer prefix skips as commented out. The checkpoint stays before
/// such a construct, so the next call re-scans it. Scanning a prefix
/// from 0 and then its extension from the returned checkpoint together
/// report every source a whole scan of the extension reports, in order
/// (plus any the open-comment tail reported the first time).
pub fn scan_inline_image_sources(html: &str, from: usize, mut f: impl FnMut(&str)) -> usize {
    scan_start_tags(html, from, |name, attrs| {
        if name.eq_ignore_ascii_case("img") {
            if let Some(src) = attr_value(attrs, "src") {
                f(src);
            }
        }
    })
}

/// [`scan_inline_image_sources`] over raw bytes that may not be valid
/// UTF-8, decoded the way `String::from_utf8_lossy` decodes the whole
/// prefix. `from` and the returned checkpoint are byte offsets into
/// `bytes`. Lossy decoding moves offsets after an invalid or truncated
/// sequence, so the checkpoint only advances over the bytes that decode
/// as valid UTF-8.
pub fn scan_inline_image_bytes(bytes: &[u8], from: usize, mut f: impl FnMut(&str)) -> usize {
    let tail = &bytes[from..];
    match std::str::from_utf8(tail) {
        Ok(text) => from + scan_inline_image_sources(text, 0, f),
        Err(e) => {
            scan_inline_image_sources(&String::from_utf8_lossy(tail), 0, &mut f);
            let valid = std::str::from_utf8(&tail[..e.valid_up_to()])
                .expect("bytes before valid_up_to are valid UTF-8");
            from + scan_inline_image_sources(valid, 0, |_| {})
        }
    }
}

/// Visit every pushable subresource reference in document order: the
/// `src` of `<img>` tags plus the `href` of `<link rel=stylesheet>`
/// tags. This is the server-push discovery scan — same walk as
/// [`for_each_inline_image_source`], zero allocations.
pub fn for_each_subresource(html: &str, mut f: impl FnMut(&str)) {
    scan_start_tags(html, 0, |name, attrs| {
        if name.eq_ignore_ascii_case("img") {
            if let Some(src) = attr_value(attrs, "src") {
                f(src);
            }
        } else if name.eq_ignore_ascii_case("link")
            && attr_value(attrs, "rel").is_some_and(|r| r.eq_ignore_ascii_case("stylesheet"))
        {
            if let Some(href) = attr_value(attrs, "href") {
                f(href);
            }
        }
    });
}

/// Visit the name and raw attributes of every start tag from `from` on,
/// and return the checkpoint [`scan_inline_image_sources`] describes.
/// Mirrors [`tokenize`]'s control flow exactly: comments and
/// declarations are skipped whole, an unterminated trailing tag is text.
fn scan_start_tags(html: &str, from: usize, mut visit: impl FnMut(&str, &str)) -> usize {
    let bytes = html.as_bytes();
    let mut i = from;
    let mut checkpoint = from;
    // False once an open comment makes everything after it provisional.
    let mut stable = true;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if stable {
            checkpoint = i;
        }
        // Comment / declaration: skipped whole, images inside don't count.
        if bytes[i..].starts_with(b"<!--") {
            if let Some(end) = html[i..].find("-->") {
                i += end + 3;
                continue;
            }
            stable = false;
        }
        if bytes[i..].starts_with(b"<!") {
            if let Some(end) = html[i..].find('>') {
                i += end + 1;
                continue;
            }
        }
        // Ordinary tag.
        let Some(end) = html[i..].find('>') else {
            // Unterminated: the remainder is text.
            return checkpoint;
        };
        let inner = &html[i + 1..i + end];
        let (closing, inner) = match inner.strip_prefix('/') {
            Some(rest) => (true, rest),
            None => (false, inner),
        };
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        let name = &inner[..name_end];
        if name.is_empty() {
            // "<>" or "< " — treat as text.
            i += 1;
            continue;
        }
        if !closing {
            visit(name, &inner[name_end..]);
        }
        i += end + 1;
    }
    if stable {
        checkpoint = bytes.len();
    }
    checkpoint
}

/// Rewrite every tag and attribute name to the given case. Attribute
/// *values* are untouched. The paper found all-lowercase tags compress
/// noticeably better (ratio ≈ .27 vs ≈ .35).
pub fn rewrite_tag_case(html: &str, upper: bool) -> String {
    let mut tokens = tokenize(html);
    for t in &mut tokens {
        if let HtmlToken::Tag { name, attrs, .. } = t {
            *name = if upper {
                name.to_ascii_uppercase()
            } else {
                name.to_ascii_lowercase()
            };
            *attrs = rewrite_attr_names(attrs, upper);
        }
    }
    serialize(&tokens)
}

/// Case-rewrite attribute names, leaving values (especially quoted ones)
/// intact.
fn rewrite_attr_names(attrs: &str, upper: bool) -> String {
    let mut out = String::with_capacity(attrs.len());
    let mut chars = attrs.char_indices().peekable();
    let bytes = attrs.as_bytes();
    let mut in_name = false;
    while let Some((i, c)) = chars.next() {
        match c {
            '"' | '\'' => {
                // Copy the quoted value verbatim.
                out.push(c);
                for (_, c2) in chars.by_ref() {
                    out.push(c2);
                    if c2 == c {
                        break;
                    }
                }
                in_name = false;
            }
            '=' => {
                out.push(c);
                in_name = false;
                // Unquoted value: copy until whitespace.
                if let Some(&(_, next)) = chars.peek() {
                    if next != '"' && next != '\'' {
                        while let Some(&(_, c2)) = chars.peek() {
                            if c2.is_ascii_whitespace() {
                                break;
                            }
                            out.push(c2);
                            chars.next();
                        }
                    }
                }
            }
            c if c.is_ascii_whitespace() => {
                out.push(c);
                in_name = true;
            }
            _ => {
                let _ = (i, bytes);
                if in_name || out.is_empty() {
                    out.push(if upper {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    });
                    in_name = true;
                } else {
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_roundtrip() {
        let html = r##"<HTML><Body bgcolor="#ffffff">Hello <B>world</B><!-- note --><IMG SRC="a.gif"></Body></HTML>"##;
        assert_eq!(serialize(&tokenize(html)), html);
    }

    #[test]
    fn finds_images_in_order() {
        let html = r#"<img src="one.gif"><p><IMG  Src='two.gif' width=3><img src=three.gif >"#;
        assert_eq!(
            inline_image_sources(html),
            vec!["one.gif", "two.gif", "three.gif"]
        );
    }

    #[test]
    fn closing_img_not_counted() {
        assert!(inline_image_sources("</img><imgx src=a.gif>").is_empty());
    }

    #[test]
    fn subresources_include_stylesheets_in_order() {
        let html = r#"<LINK REL="stylesheet" HREF="/site.css"><img src=a.gif>
            <link rel=icon href=/fav.ico><link rel=StyleSheet href='/p.css'><img src=b.gif>"#;
        let mut found = Vec::new();
        for_each_subresource(html, |s| found.push(s.to_string()));
        assert_eq!(found, vec!["/site.css", "a.gif", "/p.css", "b.gif"]);
    }

    #[test]
    fn attr_value_forms() {
        assert_eq!(attr_value(r#" src="a.gif" w=3"#, "src"), Some("a.gif"));
        assert_eq!(attr_value(r#" SRC='b.gif'"#, "src"), Some("b.gif"));
        assert_eq!(attr_value(" src=c.gif next", "src"), Some("c.gif"));
        assert_eq!(attr_value(" width=10", "src"), None);
        // Must not match inside another attribute name.
        assert_eq!(attr_value(" data-src=x.gif", "src"), None);
    }

    #[test]
    fn case_rewrite_lowers_tags_and_attrs_only() {
        let html = r#"<TABLE BORDER=0 WIDTH=600><TD ALIGN=LEFT><IMG SRC="Mixed/Case.GIF" ALT="Keep Me"></TD></TABLE>"#;
        let lower = rewrite_tag_case(html, false);
        // Attribute *values* (LEFT, the src path, the alt text) survive.
        assert_eq!(
            lower,
            r#"<table border=0 width=600><td align=LEFT><img src="Mixed/Case.GIF" alt="Keep Me"></td></table>"#
        );
        let upper = rewrite_tag_case(&lower, true);
        assert!(upper.contains("<TABLE BORDER=0"));
        assert!(upper.contains(r#"SRC="Mixed/Case.GIF""#), "{upper}");
    }

    #[test]
    fn unquoted_values_preserved_through_case_rewrite() {
        let html = "<a href=Index.HTML>x</a>";
        let lower = rewrite_tag_case(html, false);
        assert_eq!(lower, "<a href=Index.HTML>x</a>");
    }

    #[test]
    fn comments_and_doctype_preserved() {
        let html = "<!DOCTYPE HTML><!-- Keep CASE --><p>hi</p>";
        assert_eq!(rewrite_tag_case(html, false), html);
    }

    #[test]
    fn text_preserved_exactly() {
        let html = "Text with < unterminated";
        let tokens = tokenize(html);
        assert_eq!(serialize(&tokens), html);
    }

    #[test]
    fn lowercase_html_compresses_better() {
        // The paper's observation, checked against our own deflate.
        let mut html = String::new();
        for i in 0..400 {
            html.push_str(&format!(
                "<TABLE BORDER=0><TR><TD ALIGN=LEFT VALIGN=TOP>item {i} with some body text</TD></TR></TABLE>\n"
            ));
        }
        let lower = rewrite_tag_case(&html, false);
        let mixed_len = flate::deflate(html.as_bytes(), flate::Level::Default).len();
        let lower_len = flate::deflate(lower.as_bytes(), flate::Level::Default).len();
        assert!(
            lower_len < mixed_len,
            "lowercase ({lower_len}) must compress better than mixed ({mixed_len})"
        );
    }
}
