//! The object reader: allowlist check, typed getters and their messages.

use menda_trace::json::{one_of, parse, Object, MAX_EXACT_INT};

#[test]
fn only_objects_are_read() {
    for text in ["[]", "1", "\"x\"", "null"] {
        assert!(Object::new(&parse(text).unwrap()).is_none(), "{text}");
    }
}

#[test]
fn check_names_the_first_unknown_key() {
    let value = parse(r#"{"b": 1, "a": 2, "z": 3}"#).unwrap();
    let obj = Object::new(&value).unwrap();
    assert_eq!(obj.check(|k| ["a", "b", "z"].contains(&k)), Ok(()));
    assert_eq!(obj.check(|k| k == "a"), Err("b"));
    assert_eq!(obj.check(|k| k != "z"), Err("z"));
}

#[test]
fn getters_type_check_and_name_the_field() {
    let value = parse(r#"{"s": "x", "b": true, "n": 2.5, "i": 7}"#).unwrap();
    let obj = Object::new(&value).unwrap();
    assert_eq!(obj.str("s"), Ok(Some("x")));
    assert_eq!(obj.bool("b"), Ok(Some(true)));
    assert_eq!(obj.f64("n"), Ok(Some(2.5)));
    assert_eq!(obj.u64("i"), Ok(Some(7)));
    assert_eq!(obj.usize("i"), Ok(Some(7)));
    assert_eq!(obj.str("absent"), Ok(None));
    assert_eq!(obj.u64("absent"), Ok(None));
    assert_eq!(obj.str("i"), Err("'i' must be a string".into()));
    assert_eq!(obj.bool("s"), Err("'s' must be a boolean".into()));
    assert_eq!(obj.f64("b"), Err("'b' must be a number".into()));
    assert_eq!(obj.u64("s"), Err("'s' must be a number".into()));
}

#[test]
fn integers_are_exact_non_negative_and_below_2_53() {
    let int = |n: &str| {
        let value = parse(&format!(r#"{{"n": {n}}}"#)).unwrap();
        Object::new(&value).unwrap().u64("n")
    };
    let rejected = Err("'n' must be a non-negative integer representable in 53 bits".into());
    assert_eq!(int("0"), Ok(Some(0)));
    assert_eq!(int("-0"), Ok(Some(0)));
    assert_eq!(int("1e3"), Ok(Some(1000)));
    assert_eq!(int("9007199254740991"), Ok(Some(MAX_EXACT_INT)));
    for n in [
        "-1",
        "0.5",
        "9007199254740992",
        "9007199254740993",
        "1e300",
        "1e999",
    ] {
        assert_eq!(int(n), rejected, "{n}");
    }
}

#[test]
fn one_of_lists_labels() {
    assert_eq!(one_of(["a", "b", "c"]), "a, b or c");
    assert_eq!(one_of(["a", "b"]), "a or b");
    assert_eq!(one_of(["a"]), "a");
    assert_eq!(one_of([]), "");
}
