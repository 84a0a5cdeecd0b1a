//! No-op `Serialize` / `Deserialize` derives for the offline serde shim.
//!
//! The macros scan the item's token stream for the type name following the
//! `struct` or `enum` keyword and emit an empty marker-trait impl. Generic
//! type parameters are carried through unconstrained, which is sufficient
//! for the plain-old-data types this workspace derives on.

#![forbid(unsafe_code)]

use proc_macro::{TokenStream, TokenTree};

/// Extracts the type name and (raw) generic parameter list, e.g.
/// `("Foo", Some("<T, U>"))` for `struct Foo<T, U> { .. }`.
fn type_header(input: TokenStream) -> (String, String) {
    let mut tokens = input.into_iter().peekable();
    for token in tokens.by_ref() {
        if let TokenTree::Ident(ident) = &token {
            let kw = ident.to_string();
            if kw == "struct" || kw == "enum" {
                break;
            }
        }
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("derive target has no type name: {other:?}"),
    };
    // Collect a `<...>` generics group if present (token-by-token, since
    // proc_macro has no grouping for angle brackets).
    let mut generics = String::new();
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        let mut depth = 0i32;
        for token in tokens.by_ref() {
            match &token {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                _ => {}
            }
            generics.push_str(&token.to_string());
            generics.push(' ');
            if depth == 0 {
                break;
            }
        }
    }
    (name, generics)
}

/// Strips default assignments (`= expr`) and bounds from a generics list so
/// it can be reused as type arguments: `<T: Clone, const N: usize>` becomes
/// `<T, N>`. Good enough for the simple generics this workspace uses.
fn generic_args(generics: &str) -> String {
    if generics.is_empty() {
        return String::new();
    }
    let inner = generics
        .trim()
        .trim_start_matches('<')
        .trim_end_matches('>');
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    for ch in inner.chars() {
        match ch {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                args.push(current.clone());
                current.clear();
                continue;
            }
            _ => {}
        }
        current.push(ch);
    }
    if !current.trim().is_empty() {
        args.push(current);
    }
    let names: Vec<String> = args
        .iter()
        .map(|a| {
            let head = a.split([':', '=']).next().unwrap_or("").trim();
            head.trim_start_matches("const ")
                .split_whitespace()
                .last()
                .unwrap_or("")
                .to_string()
        })
        .collect();
    format!("<{}>", names.join(", "))
}

/// Derives an empty `serde::Serialize` marker impl.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, generics) = type_header(input);
    let args = generic_args(&generics);
    format!("impl{generics} ::serde::Serialize for {name}{args} {{}}")
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives an empty `serde::Deserialize` marker impl.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, generics) = type_header(input);
    let args = generic_args(&generics);
    let params = if generics.is_empty() {
        "<'de>".to_string()
    } else {
        format!("<'de, {}", generics.trim().trim_start_matches('<'))
    };
    format!("impl{params} ::serde::Deserialize<'de> for {name}{args} {{}}")
        .parse()
        .expect("generated Deserialize impl must parse")
}
