//! Robustness: no input — however malformed — may panic any parser in the
//! toolchain. Errors must come back as values.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = pdl_xml::parse_document(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_tag_soup(
        input in "[<>/a-z \"=&;!\\[\\]-]{0,120}"
    ) {
        let _ = pdl_xml::parse_document(&input);
    }

    #[test]
    fn full_pdl_pipeline_never_panics(input in ".{0,200}") {
        let _ = pdl_xml::from_xml(&input);
    }

    #[test]
    fn selector_parser_never_panics(input in ".{0,80}") {
        let _ = input.parse::<pdl_query::Selector>();
    }

    #[test]
    fn group_expr_never_panics(input in ".{0,80}") {
        let p = pdl_core::patterns::host_device(2);
        let _ = pdl_query::resolve_groups(&p, &input);
    }

    #[test]
    fn c_lexer_never_panics(input in ".{0,200}") {
        let _ = cascabel::lex::lex(&input);
    }

    #[test]
    fn cascabel_frontend_never_panics(input in ".{0,200}") {
        let _ = cascabel::parse::parse_program(&input);
    }

    #[test]
    fn pragma_parser_never_panics(input in "#pragma cascabel .{0,100}") {
        let _ = cascabel::pragma::parse_pragma(&input);
    }

    #[test]
    fn version_parser_never_panics(input in ".{0,30}") {
        let _ = input.parse::<pdl_core::version::Version>();
    }

    #[test]
    fn unit_parser_never_panics(input in ".{0,20}") {
        let _ = input.parse::<pdl_core::units::Unit>();
    }
}

/// Curated nasty inputs that have broken real XML parsers.
#[test]
fn xml_edge_case_corpus() {
    let corpus = [
        "",
        " ",
        "<",
        "<a",
        "<a>",
        "</a>",
        "<a/></a>",
        "<a><b></a></b>",
        "<a a=\"1\" a=\"2\"/>",
        "<a>&#xFFFFFFFF;</a>",
        "<a>&#0;</a>",
        "<!---->",
        "<!-- -- -->",
        "<![CDATA[",
        "<a><![CDATA[]]></a>",
        "<?xml?><?xml?><a/>",
        "<a xmlns:x=\"u\"><x:b/></a>",
        "<a>\u{0}</a>",
        "<\u{feff}a/>",
        "<a b=c/>",
        "<a 1=\"2\"/>",
        "<a>&amp</a>",
        "<a>&verylongentitynamethatoverflows;</a>",
    ];
    for src in corpus {
        // Must return, never panic; many are errors, a few parse.
        let _ = pdl_xml::parse_document(src);
    }
}

/// XML nesting is capped (`pdl_xml::parser::MAX_DEPTH`), so neither
/// `parse_element` nor its clients can run a thread out of stack; a
/// document at the cap parses, decodes and drops on this 2 MB test thread in
/// a debug build. Width is not capped and costs linear time.
#[test]
fn xml_nesting_is_capped_and_width_is_linear() {
    use pdl_xml::error::{Pos, SyntaxErrorKind};
    use pdl_xml::parser::MAX_DEPTH;

    let nested = |depth: usize| format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let text = nested(MAX_DEPTH);
    let at_cap = pdl_xml::parse_document(&text).expect("the cap itself parses");
    drop(at_cap);
    let e = pdl_xml::parse_document(&nested(MAX_DEPTH + 1)).expect_err("one level more does not");
    assert_eq!(e.kind, SyntaxErrorKind::TooDeep { limit: MAX_DEPTH });
    let col = u32::try_from(3 * MAX_DEPTH + 1).unwrap();
    assert_eq!(e.pos, Pos { line: 1, col });
    assert!(
        e.to_string()
            .contains(&format!("nested deeper than {MAX_DEPTH}")),
        "{e}"
    );
    // By the hundred kilobytes, closed or not: an error, not an abort.
    assert!(pdl_xml::parse_document(&nested(50_000)).is_err());
    assert!(pdl_xml::parse_document(&"<a>".repeat(50_000)).is_err());
    assert!(pdl_xml::parser::parse_fragment(&nested(50_000)).is_err());

    // A descriptor as deep as the cap allows goes through the whole pipeline.
    let hybrids = MAX_DEPTH - 1;
    let mut deep = String::from("<Master id=\"m\">");
    for i in 0..hybrids {
        deep.push_str(&format!("<Hybrid id=\"h{i}\">"));
    }
    deep.push_str(&"</Hybrid>".repeat(hybrids));
    deep.push_str("</Master>");
    let platform = pdl_xml::from_xml(&deep).expect("a deep chain is a valid descriptor");
    assert_eq!(platform.len(), MAX_DEPTH);

    // One element, 100 000 distinct attributes: the duplicate check used to
    // compare each name with every earlier one (26 s here); linear is ≈ 20 ms.
    let mut wide = String::from("<a");
    for i in 0..100_000 {
        wide.push_str(&format!(" k{i}=\"v\""));
    }
    wide.push_str("/>");
    let started = std::time::Instant::now();
    let doc = pdl_xml::parse_document(&wide).expect("distinct attributes parse");
    assert_eq!(doc.root().attributes().len(), 100_000);
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(5), "{took:?}");
}

/// Curated nasty cascabel inputs.
#[test]
fn cascabel_edge_case_corpus() {
    let corpus = [
        "#pragma cascabel",
        "#pragma cascabel task",
        "#pragma cascabel task : : : :",
        "#pragma cascabel task : x86 : a : b : (",
        "#pragma cascabel execute",
        "#pragma cascabel execute : ()",
        "#pragma cascabel task : x86 : a : b : ()\n",
        "#pragma cascabel task : x86 : a : b : ()\nvoid",
        "#pragma cascabel task : x86 : a : b : ()\nvoid f(",
        "#pragma cascabel task : x86 : a : b : ()\nvoid f() {",
        "#pragma cascabel execute a : g\nf(",
        "#pragma cascabel execute a : g\nf()",
        "/* unterminated",
        "\"unterminated",
    ];
    for src in corpus {
        let _ = cascabel::parse::parse_program(src);
    }
}

/// Nesting is capped in the one JSON tokenizer, so no document — a megabyte
/// of `[`, or of `{"k":` — recurses its readers off the stack. The tree
/// parser, the trace codec's passing over of unknown members and its typed
/// reads all answer with an error that names the offset.
#[test]
fn json_nesting_is_capped_everywhere() {
    use hetero_trace::json::{Json, MAX_DEPTH};

    for unit in ["[", "{\"k\":", "[{\"k\":"] {
        let hostile = unit.repeat((1 << 20) / unit.len());
        let e = Json::parse(&hostile).expect_err("the tree parser stops");
        assert!(e.message.contains("nesting"), "{e}");
        assert!(e.offset <= MAX_DEPTH * unit.len(), "{e}");

        let e = hetero_trace::codec::parse(&hostile).expect_err("the codec stops");
        assert!(e.contains("nesting"), "{e}");
        // Inside a trace document, where a member is passed over — and
        // where events are expected, whatever the complaint there.
        for member in ["x-vendor", "meta", "prelude"] {
            let doc = format!(r#"{{"kind":"hetero-trace-run","{member}":{hostile}"#);
            let e = hetero_trace::codec::parse(&doc).expect_err("the codec stops");
            assert!(
                member == "prelude" || e.contains("nesting"),
                "{member}: {e}"
            );
        }
    }
    // The cap is on depth, not on size: a long flat document is fine.
    let flat = format!("[{}0]", "0,".repeat(1 << 18));
    assert_eq!(Json::parse(&flat).unwrap().items().len(), (1 << 18) + 1);
    let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&nested).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_and_trace_codec_never_panic(input in "[\\[\\]{}\",:0-9a-z\\\\ .eE+-]{0,160}") {
        let _ = hetero_trace::json::Json::parse(&input);
        let _ = hetero_trace::codec::parse(&input);
        let _ = hetero_trace::codec::parse(&format!(
            r#"{{"kind":"hetero-trace-run","meta":{{}},"prelude":[{input}"#
        ));
    }
}
